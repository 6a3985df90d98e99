#include "obs/trace.hpp"

#include <ostream>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace chameleon::obs {

const char* trace_type_name(TraceType t) {
  switch (t) {
    case TraceType::kArptTransition: return "arpt_transition";
    case TraceType::kHcdsSwap: return "hcds_swap";
    case TraceType::kEwoOffload: return "ewo_offload";
    case TraceType::kConversion: return "conversion";
    case TraceType::kLogCompaction: return "log_compaction";
    case TraceType::kGcCycle: return "gc_cycle";
    case TraceType::kRepair: return "repair";
    case TraceType::kMessageSend: return "message_send";
    case TraceType::kMessageRecv: return "message_recv";
    case TraceType::kStateCensus: return "state_census";
    case TraceType::kWearSnapshot: return "wear_snapshot";
    case TraceType::kServerWear: return "server_wear";
    case TraceType::kFaultInjected: return "fault_injected";
    case TraceType::kSvcSessionOpen: return "svc_session_open";
    case TraceType::kSvcSessionClose: return "svc_session_close";
    case TraceType::kSvcRequest: return "svc_request";
    case TraceType::kSvcShed: return "svc_shed";
    case TraceType::kSvcSlowRequest: return "svc_slow_request";
    case TraceType::kCheckpoint: return "checkpoint";
    case TraceType::kRecoveryStart: return "recovery_start";
    case TraceType::kRecoveryReplay: return "recovery_replay";
    case TraceType::kRecoveryDone: return "recovery_done";
    case TraceType::kCount: break;
  }
  return "unknown";
}

std::string TraceEvent::to_json() const {
  std::string out;
  out.reserve(128);
  out += "{\"seq\":";
  out += std::to_string(seq);
  out += ",\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"type\":";
  json_append_escaped(out, trace_type_name(type));
  const auto field = [&out](const char* key, std::uint64_t v) {
    if (v == kNoField) return;
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  field("oid", oid);
  field("server", server);
  field("peer", peer);
  if (!from.empty()) {
    out += ",\"from\":";
    json_append_escaped(out, from);
  }
  if (!to.empty()) {
    out += ",\"to\":";
    json_append_escaped(out, to);
  }
  field("a", a);
  field("b", b);
  if (has_value) {
    out += ",\"value\":";
    out += json_number(value);
  }
  if (has_value2) {
    out += ",\"value2\":";
    out += json_number(value2);
  }
  if (!detail.empty()) {
    out += ",\"detail\":";
    out += detail;  // pre-rendered JSON, emitted verbatim
  }
  out += "}";
  return out;
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceSink::set_type_filter(const std::vector<TraceType>& keep) {
  std::uint64_t mask = 0;
  for (const TraceType t : keep) {
    mask |= std::uint64_t{1} << static_cast<std::uint32_t>(t);
  }
  mask_.store(mask, std::memory_order_relaxed);
}

void TraceSink::clear_type_filter() {
  mask_.store(~std::uint64_t{0}, std::memory_order_relaxed);
}

void TraceSink::record(TraceEvent e) {
  if (!accepts(e.type)) return;
  std::lock_guard lock(mutex_);
  e.seq = recorded_++;
  if (ring_.empty()) ring_.resize(capacity_);
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

void TraceSink::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  std::vector<TraceEvent>().swap(ring_);
  head_ = 0;
  size_ = 0;
}

std::size_t TraceSink::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

std::size_t TraceSink::allocated() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::size_t TraceSink::size() const {
  std::lock_guard lock(mutex_);
  return size_;
}

std::uint64_t TraceSink::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard lock(mutex_);
  return recorded_ - size_;
}

void TraceSink::clear() {
  std::lock_guard lock(mutex_);
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

void TraceSink::write_jsonl(std::ostream& out) const {
  for (const auto& e : snapshot()) {
    out << e.to_json() << '\n';
  }
}

TraceSink& trace() {
  static TraceSink sink;
  return sink;
}

void sync_trace_metrics() {
  if (!enabled()) return;
  auto& reg = metrics();
  TraceSink& sink = trace();
  // Counters expose inc/reset only; re-seed them to the sink's current
  // monotone values at exposition time.
  auto& recorded =
      reg.counter("chameleon_trace_recorded_total", {},
                  "Trace events accepted by the process-wide sink");
  recorded.reset();
  recorded.inc(sink.recorded());
  auto& dropped =
      reg.counter("chameleon_trace_dropped_total", {},
                  "Trace events overwritten by ring wraparound (raise the "
                  "sink capacity or tighten the type filter if nonzero)");
  dropped.reset();
  dropped.inc(sink.dropped());
}

}  // namespace chameleon::obs

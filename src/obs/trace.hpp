// Structured event tracing: typed balancer/cluster events recorded into a
// bounded ring buffer with JSONL export. This is what turns the paper's
// timeline figures (Fig 8 state fractions, Table IV transition counts) into
// a replayable stream instead of bespoke per-bench sampling code.
//
// Volume control: the sink is disabled by default, bounded by a fixed
// capacity (oldest events are overwritten, `dropped()` counts them), and
// filterable by event type so a long run can keep only the low-rate events
// (e.g. per-epoch census snapshots) without the per-message firehose.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace chameleon::obs {

enum class TraceType : std::uint32_t {
  kArptTransition = 0,  ///< ARPT screened/cancelled a redundancy transition
  kHcdsSwap,            ///< HCDS scheduled a hot/cold exchange
  kEwoOffload,          ///< a write materialized a pending lazy transition
  kConversion,          ///< eager REP<->EC conversion (data movement)
  kLogCompaction,       ///< epoch-log compaction pass
  kGcCycle,             ///< one on-demand/background GC victim relocation
  kRepair,              ///< repair manager rebuilt a failed server
  kMessageSend,         ///< network transfer accounted (per traffic class)
  kMessageRecv,         ///< coordinator received a monitor heartbeat
  kStateCensus,         ///< per-epoch object/byte count for one RedState
  kWearSnapshot,        ///< per-epoch cluster wear summary (mean/stddev/CV)
  kServerWear,          ///< per-epoch per-server erase telemetry
  kFaultInjected,       ///< the fault injector applied one schedule event
  kSvcSessionOpen,      ///< service layer accepted a connection
  kSvcSessionClose,     ///< service layer closed a connection
  kSvcRequest,          ///< one served (admitted + executed) service request
  kSvcShed,             ///< admission control shed a request
  kSvcSlowRequest,      ///< slow/sampled request with full stage breakdown
  kCheckpoint,          ///< durability layer wrote a full-cluster snapshot
  kRecoveryStart,       ///< crash recovery began (checkpoint search)
  kRecoveryReplay,      ///< crash recovery finished replaying the WAL tail
  kRecoveryDone,        ///< crash recovery completed (system serving again)
  kCount
};

const char* trace_type_name(TraceType t);

inline constexpr std::uint64_t kNoField =
    std::numeric_limits<std::uint64_t>::max();

/// One event. Field meaning by type (unused fields are omitted from JSON):
///   kArptTransition  oid, from/to state names, value=heat
///   kHcdsSwap        oid, server=source, peer=destination, from=state name
///   kEwoOffload      oid, from=intermediate state, to=materialized state
///   kConversion      oid, to=target state, a=bytes moved
///   kLogCompaction   a=entries removed
///   kGcCycle         a=pages copied, b=blocks erased, value=victim util
///   kRepair          server=failed server, a=objects scanned, b=fragments
///   kMessageSend     from=traffic class, a=bytes
///   kMessageRecv     server=sender, from=traffic class, a=bytes
///   kStateCensus     from=state name, a=objects, b=bytes
///   kWearSnapshot    a=total erases, value=erase mean, value2=erase stddev
///   kServerWear      server, a=cumulative erases, b=erases this epoch
///   kFaultInjected   server=target, from=fault kind, a=window epochs,
///                    value=rate (drop probability / UBER)
///   kSvcSessionOpen  server=session id
///   kSvcSessionClose server=session id
///   kSvcRequest      server=session id, from=op name, to=status name,
///                    a=request payload bytes, value=latency ns
///   kSvcShed         server=session id, from=op name
///   kSvcSlowRequest  server=session id, from=op name, to=capture reason
///                    ("threshold" | "sample"), a=request id, b=request
///                    payload bytes, value=end-to-end ns, detail=per-stage
///                    nanoseconds object (obs::Span::stages_json)
///   kCheckpoint      a=checkpoint seq, b=WAL records since the last one
///   kRecoveryStart   (no fields)
///   kRecoveryReplay  a=records replayed, b=truncated tail bytes
///   kRecoveryDone    epoch=restored epoch, a=checkpoint seq, value=seconds
struct TraceEvent {
  std::uint64_t seq = 0;  ///< assigned by the sink, monotone
  std::uint64_t epoch = 0;
  TraceType type = TraceType::kArptTransition;
  std::uint64_t oid = kNoField;
  std::uint64_t server = kNoField;
  std::uint64_t peer = kNoField;
  std::string from;
  std::string to;
  std::uint64_t a = kNoField;
  std::uint64_t b = kNoField;
  double value = 0.0;
  bool has_value = false;
  double value2 = 0.0;
  bool has_value2 = false;
  /// Optional pre-rendered JSON value (object/array/number) emitted verbatim
  /// under the "detail" key — for structured payloads (e.g. the per-stage
  /// breakdown of kSvcSlowRequest) that don't fit the scalar fields.
  std::string detail;

  std::string to_json() const;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 1 << 16);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Restrict recording to a subset of types. Default: all types pass.
  void set_type_filter(const std::vector<TraceType>& keep);
  void clear_type_filter();

  /// Fast pre-check for instrumentation sites: enabled AND type passes the
  /// filter. Sites should gate event construction on this.
  bool accepts(TraceType t) const {
    return enabled() &&
           (mask_.load(std::memory_order_relaxed) &
            (std::uint64_t{1} << static_cast<std::uint32_t>(t))) != 0;
  }

  /// Record one event (no-op unless accepts(e.type)). Assigns `seq`.
  void record(TraceEvent e);

  /// Resize (and clear) the ring. Use before a run that must not wrap.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;
  /// Ring slots allocated: 0 until the first accepted event, then
  /// capacity(). A sink that never records holds no event storage.
  std::size_t allocated() const;

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> snapshot() const;

  std::size_t size() const;
  std::uint64_t recorded() const;  ///< total accepted since construction
  std::uint64_t dropped() const;   ///< overwritten by wraparound
  void clear();

  /// One JSON object per line, oldest first.
  void write_jsonl(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< empty until the first record
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> mask_{~std::uint64_t{0}};
};

/// Process-wide sink used by all instrumentation sites.
TraceSink& trace();

/// Publish the process-wide sink's counters into the metrics registry
/// (chameleon_trace_recorded_total / chameleon_trace_dropped_total), so a
/// silently wrapping trace ring is visible in any metrics scrape. Call at
/// exposition time (the svc METRICS op and the bench --metrics-out path do);
/// no-op when obs is disabled.
void sync_trace_metrics();

}  // namespace chameleon::obs

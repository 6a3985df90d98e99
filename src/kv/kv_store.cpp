#include "kv/kv_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/device_exec.hpp"
#include "common/fnv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::kv {

using meta::ObjectMeta;
using meta::RedState;
using meta::ServerSet;

namespace {

/// Record put-side metrics; shared by the three put_impl exit paths. In
/// deferred mode the latency observation runs at drain time with the
/// resolved value (see OpScope::finish), so both modes feed the histogram
/// the same numbers.
void record_put_latency(Nanos latency) {
  static auto& puts = obs::metrics().counter(
      "chameleon_kv_puts_total", {}, "Object put operations");
  static auto& latency_hist = obs::metrics().histogram(
      "chameleon_put_latency_ns", 0.0, 1e8, 1000, {},
      "End-to-end put latency (device + network), in nanoseconds");
  puts.inc();
  latency_hist.observe(static_cast<double>(latency));
}

/// Scopes one client-visible operation on the device executor (when one is
/// engaged): fan-out groups opened inside resolve into the op's latency at
/// the next drain. Inert in sequential mode. Unwinding without finish()
/// aborts the op, discarding its latency bookkeeping — the device closures
/// already deferred mirror work sequential mode performed before the fault.
class OpScope {
 public:
  explicit OpScope(cluster::DeviceExecutor* exec)
      : exec_(exec != nullptr && exec->engaged() ? exec : nullptr) {
    if (exec_ != nullptr) exec_->op_begin();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
  ~OpScope() {
    if (exec_ != nullptr && !finished_) exec_->op_abort();
  }

  bool deferred() const { return exec_ != nullptr; }

  /// Close the op: `result.latency` currently holds the inline part. Sets
  /// result.pending to the executor token; `on_resolved` (optional) runs at
  /// drain with the full latency.
  void finish(OpResult& result, std::function<void(Nanos)> on_resolved = {}) {
    if (exec_ == nullptr) return;
    result.pending = exec_->op_end(result.latency, std::move(on_resolved));
    finished_ = true;
  }

 private:
  cluster::DeviceExecutor* exec_;
  bool finished_ = false;
};

/// Scopes one parallel fan-out (the "max over servers" loops). close(max)
/// takes the running max of the *inline* members and returns what the
/// caller should add to its latency: the max itself in sequential mode, 0 in
/// deferred mode (the group then contributes max(inline, deferred slots) to
/// the enclosing op at drain).
class GroupScope {
 public:
  explicit GroupScope(cluster::DeviceExecutor* exec)
      : exec_(exec != nullptr && exec->engaged() ? exec : nullptr) {
    if (exec_ != nullptr) exec_->group_begin();
  }
  GroupScope(const GroupScope&) = delete;
  GroupScope& operator=(const GroupScope&) = delete;
  ~GroupScope() {
    if (exec_ != nullptr && !closed_) exec_->group_end(0);
  }

  Nanos close(Nanos inline_max) {
    if (exec_ == nullptr) return inline_max;
    closed_ = true;
    exec_->group_end(inline_max);
    return 0;
  }

 private:
  cluster::DeviceExecutor* exec_;
  bool closed_ = false;
};

/// Close a put's op scope (deferred mode) or record its metrics inline
/// (sequential mode); shared by the three put_impl exit paths.
void finish_put(OpScope& scope, OpResult& result) {
  if (scope.deferred()) {
    std::function<void(Nanos)> on_resolved;
    if (obs::enabled()) on_resolved = &record_put_latency;
    scope.finish(result, std::move(on_resolved));
  } else if (obs::enabled()) {
    record_put_latency(result.latency);
  }
}

}  // namespace

KvStore::KvStore(cluster::Cluster& cluster, meta::MappingTable& table,
                 const KvConfig& config)
    : cluster_(cluster),
      table_(table),
      config_(config),
      codec_(config.ec_total, config.ec_data) {
  if (config_.replicas == 0) {
    throw std::invalid_argument("KvConfig: bad redundancy parameters");
  }
  if (config_.replicas > meta::ServerSet::capacity() ||
      config_.ec_total > meta::ServerSet::capacity()) {
    throw std::invalid_argument(
        "KvConfig: redundancy set exceeds ServerSet inline capacity");
  }
  if (cluster_.size() < std::max(config_.replicas, config_.ec_total)) {
    throw std::invalid_argument("KvStore: cluster smaller than redundancy set");
  }
}

void KvStore::enable_payloads() {
  if (!payloads_) payloads_ = std::make_unique<PayloadStore>();
}

ServerSet KvStore::place(ObjectId oid, RedState scheme) const {
  const std::size_t n = scheme == RedState::kRep ? config_.replicas
                                                 : config_.ec_total;
  const auto servers = cluster_.ring().successors(placement_hash(oid), n);
  ServerSet out;
  for (const ServerId s : servers) out.push_back(s);
  return out;
}

std::uint64_t KvStore::fragment_bytes(std::uint64_t object_bytes,
                                      RedState scheme) const {
  if (scheme == RedState::kRep) return object_bytes;
  return config_.stripe_geometry(cluster_.ssd_config().page_size_bytes)
      .shard_bytes(object_bytes);
}

KvStore::FragmentPayloads KvStore::shard_payload(
    const std::vector<std::uint8_t>& value, RedState scheme) const {
  if (scheme == RedState::kRep) {
    return FragmentPayloads(config_.replicas, value);
  }
  return codec_.encode_object(value);
}

flashsim::StreamHint KvStore::stream_hint(double heat) const {
  if (!config_.multi_stream) return flashsim::StreamHint::kDefault;
  return heat >= config_.hot_stream_threshold ? flashsim::StreamHint::kHot
                                              : flashsim::StreamHint::kCold;
}

Nanos KvStore::write_fragments(ObjectId oid, std::uint64_t bytes,
                               RedState scheme, const ServerSet& servers,
                               std::uint32_t version,
                               const FragmentPayloads* payloads,
                               flashsim::StreamHint hint) {
  if (servers.size() != fragments_of(scheme)) {
    throw std::invalid_argument(
        "KvStore::write_fragments: wrong fragment-set size for scheme");
  }
  const std::uint64_t frag_bytes = fragment_bytes(bytes, scheme);
  GroupScope group(cluster_.executor());
  Nanos latency = 0;  // fragments are written in parallel -> take the max
  for (std::uint32_t i = 0; i < servers.size(); ++i) {
    const auto key = cluster::fragment_key(oid, version, i);
    Nanos l = 0;
    try {
      l = cluster_.server(servers[i]).write_fragment(key, frag_bytes, hint);
    } catch (const TransientFault&) {
      // Annotate with the failing server so the retry layer can mark it
      // suspect. Fragments written so far stay in place: a retried put
      // overwrites them under the same keys, so no cleanup is needed.
      throw WriteFault(servers[i]);
    }
    latency = std::max(latency, l);
    if (payloads_ && payloads != nullptr) {
      payloads_->store(servers[i], key, (*payloads)[i]);
    }
  }
  return group.close(latency);
}

void KvStore::remove_fragments(ObjectId oid, RedState scheme,
                               const ServerSet& servers,
                               std::uint32_t version) {
  (void)scheme;
  for (std::uint32_t i = 0; i < servers.size(); ++i) {
    const auto key = cluster::fragment_key(oid, version, i);
    cluster_.server(servers[i]).remove_fragment(key);
    if (payloads_) payloads_->erase(servers[i], key);
  }
}

Nanos KvStore::network_fanout(std::uint64_t bytes, RedState scheme,
                              cluster::Traffic traffic) {
  Nanos latency = cluster_.network().transfer(traffic, bytes);
  if (scheme == RedState::kRep) {
    latency = std::max(latency,
                       cluster_.network().transfer(
                           cluster::Traffic::kReplication,
                           bytes * (config_.replicas - 1)));
  } else {
    const std::uint64_t shard = fragment_bytes(bytes, RedState::kEc);
    latency = std::max(latency,
                       cluster_.network().transfer(
                           cluster::Traffic::kEcDistribution,
                           shard * (config_.ec_total - 1)));
  }
  return latency;
}

OpResult KvStore::put(ObjectId oid, std::uint64_t bytes, Epoch now) {
  return put_impl(oid, bytes, now, nullptr);
}

OpResult KvStore::put_value(ObjectId oid, std::span<const std::uint8_t> value,
                            Epoch now) {
  if (!payloads_) {
    throw std::logic_error("KvStore::put_value: payloads not enabled");
  }
  const std::vector<std::uint8_t> copy(value.begin(), value.end());
  return put_impl(oid, copy.size(), now, &copy);
}

OpResult KvStore::put_impl(ObjectId oid, std::uint64_t bytes, Epoch now,
                           const std::vector<std::uint8_t>* value) {
  OpResult result;
  OpScope scope(cluster_.executor());

  auto existing = table_.get(oid);
  if (!existing) {
    ObjectMeta m;
    m.oid = oid;
    m.size_bytes = bytes;
    m.state = config_.initial_scheme;
    m.placement_version = 0;
    m.src = place(oid, m.state);
    m.state_since = now;
    m.heat_epoch = now;
    m.note_write(now);
    // Fault-ordering: ship the bytes over the network first, then program
    // the devices, and only then insert the mapping entry. A fault anywhere
    // in between leaves no table entry, so a retried create starts clean.
    result.latency =
        network_fanout(bytes, m.state, cluster::Traffic::kClientWrite);
    FragmentPayloads frags;
    if (value != nullptr) frags = shard_payload(*value, m.state);
    result.latency += write_fragments(oid, bytes, m.state, m.src, 0,
                                      value ? &frags : nullptr,
                                      stream_hint(m.heat(now)));
    if (!table_.create(m)) {
      throw std::logic_error("KvStore::put: concurrent create");
    }
    result.state = m.state;
    finish_put(scope, result);
    return result;
  }

  ObjectMeta m = *existing;
  m.note_write(now);
  m.size_bytes = bytes;

  // A destination that has filled up since the transition was scheduled
  // cancels the move: the update is applied in place instead.
  bool cancelled_in_place = false;
  if (meta::is_intermediate(m.state)) {
    for (const ServerId s : m.dst) {
      if (!m.src.contains(s) &&
          cluster_.server(s).logical_utilization() > config_.dst_space_guard) {
        m.state = meta::current_scheme(m.state);
        m.dst.clear();
        m.state_since = now;
        cancelled_in_place = true;
        break;
      }
    }
  }

  // Fault-ordering: network fan-out precedes every device write (the client
  // must ship the bytes before servers can program them), and the old
  // fragments of a lazy transition are invalidated only after every new
  // fragment landed — a fault mid-materialization leaves the source array
  // intact and readable, and the retried put redoes the whole transition.
  const RedState fanout_scheme = meta::is_intermediate(m.state)
                                     ? meta::target_scheme(m.state)
                                     : m.state;
  result.latency =
      network_fanout(bytes, fanout_scheme, cluster::Traffic::kClientWrite);

  if (meta::is_intermediate(m.state)) {
    // Lazy transition: this very update materializes the pending scheme on
    // the destination servers; the old fragments are merely invalidated
    // (trim — no flash writes), which is the EWO/late-REP/late-EC payoff.
    const RedState intermediate = m.state;
    const RedState old_scheme = meta::current_scheme(m.state);
    const RedState new_scheme = meta::target_scheme(m.state);
    const std::uint32_t new_version = m.placement_version + 1;
    FragmentPayloads frags;
    if (value != nullptr) frags = shard_payload(*value, new_scheme);
    result.latency += write_fragments(oid, bytes, new_scheme, m.dst,
                                      new_version, value ? &frags : nullptr,
                                      stream_hint(m.heat(now)));
    remove_fragments(oid, old_scheme, m.src, m.placement_version);
    m.src = m.dst;
    m.dst.clear();
    m.state = new_scheme;
    m.placement_version = new_version;
    m.state_since = now;
    result.converted = true;
    table_.log_change(oid, meta::EpochLogEntry{now, new_scheme, m.src, {}});
    if (obs::enabled()) {
      static auto& offloads = obs::metrics().counter(
          "chameleon_ewo_offloads_total", {},
          "Lazy transitions materialized by an incoming write (EWO payoff)");
      offloads.inc();
      auto& sink = obs::trace();
      if (sink.accepts(obs::TraceType::kEwoOffload)) {
        obs::TraceEvent e;
        e.type = obs::TraceType::kEwoOffload;
        e.epoch = now;
        e.oid = oid;
        e.from = std::string(meta::red_state_name(intermediate));
        e.to = std::string(meta::red_state_name(new_scheme));
        sink.record(std::move(e));
      }
    }
  } else {
    FragmentPayloads frags;
    if (value != nullptr) frags = shard_payload(*value, m.state);
    result.latency += write_fragments(oid, bytes, m.state, m.src,
                                      m.placement_version,
                                      value ? &frags : nullptr,
                                      stream_hint(m.heat(now)));
  }
  result.state = m.state;

  table_.mutate(oid, [&m](ObjectMeta& stored) { stored = m; });
  if (cancelled_in_place) {
    // Logged only after the state change is durable in the table: a fault
    // during the write above must not leave the log ahead of the metadata.
    table_.log_change(oid, meta::EpochLogEntry{now, m.state, m.src, {}});
  }
  finish_put(scope, result);
  return result;
}

Nanos KvStore::read_one_fragment(ServerId server, std::uint64_t key) {
  auto& node = cluster_.server(server);
  if (!node.has_fragment(key)) {
    // E.g. the server was wiped by a repair that has not finished rebuilding
    // yet; callers fall back to the surviving redundancy.
    throw ReadFault(server, "fragment missing");
  }
  try {
    return node.read_fragment(key);
  } catch (const TransientFault&) {
    throw ReadFault(server, "uncorrectable device read");
  }
}

Nanos KvStore::read_fragments_for_object(const ObjectMeta& m) {
  const RedState scheme = meta::current_scheme(m.state);
  GroupScope group(cluster_.executor());
  Nanos latency = 0;
  if (scheme == RedState::kRep) {
    // Any replica holds the whole object; rotate deterministically.
    const std::uint32_t i = static_cast<std::uint32_t>(m.oid % m.src.size());
    latency = read_one_fragment(
        m.src[i], cluster::fragment_key(m.oid, m.placement_version, i));
  } else {
    // Read the k data shards in parallel; parity only on degraded reads.
    for (std::uint32_t i = 0; i < config_.ec_data; ++i) {
      latency = std::max(
          latency,
          read_one_fragment(
              m.src[i], cluster::fragment_key(m.oid, m.placement_version, i)));
    }
  }
  return group.close(latency);
}

OpResult KvStore::get(ObjectId oid, Epoch now) {
  (void)now;  // reads do not contribute to write heat (Eq 1 counts writes)
  const auto existing = table_.get(oid);
  if (!existing) {
    throw std::out_of_range("KvStore::get: unknown object");
  }
  OpResult result;
  result.state = existing->state;
  OpScope scope(cluster_.executor());
  // Intermediate states: the source array still holds the latest bytes
  // (paper Fig 3 / §III-C); read_fragments_for_object reads from src.
  result.latency = read_fragments_for_object(*existing);
  result.latency += cluster_.network().transfer(cluster::Traffic::kClientRead,
                                                existing->size_bytes);
  if (obs::enabled()) {
    static auto& gets = obs::metrics().counter(
        "chameleon_kv_gets_total", {}, "Object get operations");
    gets.inc();
  }
  scope.finish(result);
  return result;
}

OpResult KvStore::get_degraded(ObjectId oid, Epoch now,
                               const std::set<ServerId>& down) {
  (void)now;
  const auto existing = table_.get(oid);
  if (!existing) {
    throw std::out_of_range("KvStore::get_degraded: unknown object");
  }
  const ObjectMeta& m = *existing;
  const RedState scheme = meta::current_scheme(m.state);
  OpResult result;
  result.state = m.state;
  OpScope scope(cluster_.executor());

  if (scheme == RedState::kRep) {
    GroupScope group(cluster_.executor());
    bool served = false;
    for (std::uint32_t i = 0; i < m.src.size(); ++i) {
      const std::uint32_t idx =
          static_cast<std::uint32_t>((m.oid + i) % m.src.size());
      if (down.contains(m.src[idx])) continue;
      try {
        result.latency = read_one_fragment(
            m.src[idx], cluster::fragment_key(m.oid, m.placement_version, idx));
      } catch (const TransientFault&) {
        continue;  // replica unreadable right now -> try the next one
      }
      served = true;
      break;
    }
    if (!served) {
      throw std::runtime_error("KvStore::get_degraded: all replicas down");
    }
    result.latency = group.close(result.latency);
  } else {
    // Gather any k live shards; using a parity shard costs a decode pass.
    GroupScope group(cluster_.executor());
    std::size_t gathered = 0;
    bool used_parity = false;
    for (std::uint32_t i = 0; i < m.src.size() && gathered < config_.ec_data;
         ++i) {
      if (down.contains(m.src[i])) continue;
      Nanos l = 0;
      try {
        l = read_one_fragment(
            m.src[i], cluster::fragment_key(m.oid, m.placement_version, i));
      } catch (const TransientFault&) {
        continue;  // shard unreadable -> gather a parity shard instead
      }
      result.latency = std::max(result.latency, l);
      if (i >= config_.ec_data) used_parity = true;
      ++gathered;
    }
    if (gathered < config_.ec_data) {
      throw std::runtime_error(
          "KvStore::get_degraded: fewer than k shards survive");
    }
    result.latency = group.close(result.latency);
    if (used_parity) {
      result.latency += static_cast<Nanos>(
          config_.decode_ns_per_byte * static_cast<double>(m.size_bytes));
    }
  }
  result.latency += cluster_.network().transfer(cluster::Traffic::kClientRead,
                                                m.size_bytes);
  if (obs::enabled()) {
    static auto& degraded = obs::metrics().counter(
        "chameleon_degraded_reads_total", {},
        "Reads served from surviving redundancy (replica fallback or "
        "k-of-n shard reconstruction)");
    degraded.inc();
  }
  scope.finish(result);
  return result;
}

std::vector<std::uint8_t> KvStore::gather_value(
    const ObjectMeta& m, const std::set<ServerId>& down) const {
  if (!payloads_) {
    throw std::logic_error("KvStore::gather_value: payloads not enabled");
  }
  const RedState scheme = meta::current_scheme(m.state);
  if (scheme == RedState::kRep) {
    for (std::uint32_t i = 0; i < m.src.size(); ++i) {
      if (down.contains(m.src[i])) continue;
      const auto bytes = payloads_->load(
          m.src[i], cluster::fragment_key(m.oid, m.placement_version, i));
      if (bytes) return *bytes;
    }
    throw std::runtime_error("KvStore: all replicas unavailable");
  }
  // EC: collect surviving shards, reconstruct if any data shard is missing.
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(
      config_.ec_total);
  for (std::uint32_t i = 0; i < m.src.size(); ++i) {
    if (down.contains(m.src[i])) continue;
    shards[i] = payloads_->load(
        m.src[i], cluster::fragment_key(m.oid, m.placement_version, i));
  }
  const auto data = codec_.reconstruct_data(shards);
  return ec::ReedSolomon::join(data, m.size_bytes);
}

std::vector<std::uint8_t> KvStore::get_value(ObjectId oid, Epoch now,
                                             const std::set<ServerId>& down,
                                             OpResult* op_out) {
  const auto existing = table_.get(oid);
  if (!existing) {
    throw std::out_of_range("KvStore::get_value: unknown object");
  }
  // Account device reads + network; with suspects the degraded path skips
  // them (and any fragment that turns out to be missing or unreadable).
  const OpResult op =
      down.empty() ? get(oid, now) : get_degraded(oid, now, down);
  if (op_out != nullptr) *op_out = op;
  return gather_value(*existing, down);
}

bool KvStore::remove(ObjectId oid) {
  const auto existing = table_.get(oid);
  if (!existing) return false;
  remove_fragments(oid, meta::current_scheme(existing->state), existing->src,
                   existing->placement_version);
  return table_.erase(oid);
}

Nanos KvStore::relocate(ObjectId oid, const ServerSet& dst,
                        cluster::Traffic traffic, Epoch now) {
  auto existing = table_.get(oid);
  if (!existing) {
    throw std::out_of_range("KvStore::relocate: unknown object");
  }
  ObjectMeta m = *existing;
  const RedState scheme = meta::current_scheme(m.state);

  // Bulk copy: read every live fragment, push it over the network, program
  // it at the destination. This is the data-migration cost Chameleon avoids
  // and EDM pays.
  Nanos latency = read_fragments_for_object(m);
  const std::uint64_t frag_bytes = fragment_bytes(m.size_bytes, scheme);
  const std::uint64_t moved_bytes = frag_bytes * fragments_of(scheme);
  latency += cluster_.network().transfer(traffic, moved_bytes);

  FragmentPayloads frags;
  bool have_payload = false;
  if (payloads_) {
    frags.resize(fragments_of(scheme));
    have_payload = true;
    for (std::uint32_t i = 0; i < m.src.size(); ++i) {
      const auto bytes = payloads_->load(
          m.src[i], cluster::fragment_key(m.oid, m.placement_version, i));
      if (!bytes) {
        have_payload = false;
        break;
      }
      frags[i] = *bytes;
    }
  }

  const std::uint32_t new_version = m.placement_version + 1;
  latency += write_fragments(oid, m.size_bytes, scheme, dst, new_version,
                             have_payload ? &frags : nullptr);
  remove_fragments(oid, scheme, m.src, m.placement_version);

  m.src = dst;
  m.dst.clear();
  m.state = scheme;  // any pending lazy transition is superseded
  m.placement_version = new_version;
  table_.mutate(oid, [&m](ObjectMeta& stored) { stored = m; });
  table_.log_change(oid, meta::EpochLogEntry{now, m.state, m.src, {}});
  if (obs::enabled()) {
    obs::metrics()
        .counter("chameleon_relocations_total",
                 {{"kind", cluster::traffic_name(traffic)}},
                 "Eager bulk object relocations by traffic class")
        .inc();
  }
  return latency;
}

Nanos KvStore::convert(ObjectId oid, RedState target, const ServerSet& dst,
                       cluster::Traffic traffic, Epoch now) {
  if (target != RedState::kRep && target != RedState::kEc) {
    throw std::invalid_argument("KvStore::convert: target must be REP or EC");
  }
  auto existing = table_.get(oid);
  if (!existing) {
    throw std::out_of_range("KvStore::convert: unknown object");
  }
  ObjectMeta m = *existing;
  const RedState old_scheme = meta::current_scheme(m.state);

  // Eager conversion (what HDFS-RAID-style downgrades do): gather the
  // object, re-encode/replicate, distribute, invalidate the old fragments.
  Nanos latency = read_fragments_for_object(m);
  const std::uint64_t written_bytes =
      fragment_bytes(m.size_bytes, target) * fragments_of(target);
  latency += cluster_.network().transfer(traffic, m.size_bytes + written_bytes);

  FragmentPayloads frags;
  bool have_payload = false;
  if (payloads_) {
    try {
      const auto value = gather_value(m, {});
      frags = shard_payload(value, target);
      have_payload = true;
    } catch (const std::exception&) {
      have_payload = false;  // object was stored metadata-only
    }
  }

  const std::uint32_t new_version = m.placement_version + 1;
  latency += write_fragments(oid, m.size_bytes, target, dst, new_version,
                             have_payload ? &frags : nullptr);
  remove_fragments(oid, old_scheme, m.src, m.placement_version);

  m.src = dst;
  m.dst.clear();
  m.state = target;
  m.placement_version = new_version;
  table_.mutate(oid, [&m](ObjectMeta& stored) { stored = m; });
  table_.log_change(oid, meta::EpochLogEntry{now, m.state, m.src, {}});
  if (obs::enabled()) {
    static auto& conversions = obs::metrics().counter(
        "chameleon_eager_conversions_total", {},
        "Eager REP<->EC conversions (read + re-encode + redistribute)");
    conversions.inc();
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kConversion)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kConversion;
      e.oid = oid;
      e.from = std::string(meta::red_state_name(old_scheme));
      e.to = std::string(meta::red_state_name(target));
      e.a = written_bytes;
      sink.record(std::move(e));
    }
  }
  return latency;
}

}  // namespace chameleon::kv

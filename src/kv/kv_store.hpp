// Distributed flash-backed KV store: the test application the paper builds
// from scratch (§IV-A). Places objects with consistent hashing, writes them
// under REP (3-way) or EC (RS(6,4)), and — crucially for Chameleon —
// performs the *lazy* state transitions at write time: an object sitting in
// late-REP / late-EC / REP-EWO / EC-EWO is converted and re-placed by the
// very write that updates it, exploiting flash's out-of-place update so the
// transition itself adds no extra flash writes beyond the update.
//
// The simulation fast path is metadata-sized (no payload bytes). Attaching
// a PayloadStore (enable_payloads()) additionally carries real bytes through
// the same placement and Reed-Solomon paths; kv/client.hpp builds the
// string-keyed application API on top.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/faults.hpp"
#include "common/fnv.hpp"
#include "common/types.hpp"
#include "ec/reed_solomon.hpp"
#include "ec/striper.hpp"
#include "kv/payload_store.hpp"
#include "meta/mapping_table.hpp"

namespace chameleon::kv {

struct KvConfig {
  std::size_t replicas = 3;   ///< r-way replication (paper: 3)
  std::size_t ec_total = 6;   ///< RS n (paper: 6)
  std::size_t ec_data = 4;    ///< RS k (paper: 4)
  meta::RedState initial_scheme = meta::RedState::kRep;  ///< for new objects
  /// A pending transition whose destination has filled beyond this logical
  /// utilization is cancelled at write time (the update stays in place)
  /// rather than overflowing the destination device.
  double dst_space_guard = 0.92;

  /// CPU cost of Reed-Solomon reconstruction during degraded reads, in
  /// nanoseconds per payload byte (~2 GB/s decode, ISA-L-class).
  double decode_ns_per_byte = 0.5;

  /// Multi-stream SSD writes: tag each object's page writes hot or cold by
  /// its Eq-1 heat, so the device keeps differently-tempered data in
  /// separate blocks (lower victim utilization -> lower WA). Off by
  /// default: the paper's devices are single-stream.
  bool multi_stream = false;
  double hot_stream_threshold = 4.0;

  ec::ReplicaGeometry replica_geometry(std::uint32_t page_size) const {
    return ec::ReplicaGeometry{replicas, page_size};
  }
  ec::StripeGeometry stripe_geometry(std::uint32_t page_size) const {
    return ec::StripeGeometry{ec_total, ec_data, page_size};
  }
};

/// Outcome of a client-visible operation.
struct OpResult {
  Nanos latency = 0;        ///< max over parallel fan-out + network
  bool converted = false;   ///< a lazy transition completed with this op
  meta::RedState state = meta::RedState::kRep;  ///< state after the op
  /// Deferred-execution token: -1 when `latency` is final (sequential mode).
  /// >= 0 when a device executor is engaged — `latency` then holds only the
  /// inline (network/decode) part; the full value is available from
  /// ShardExecutor::resolved_latency(pending) after the next drain.
  std::int64_t pending = -1;
};

/// A fragment read failed on `server` — the fragment is missing (wiped by an
/// interrupted repair) or the device returned an uncorrectable error. The
/// client should add the server to its `down` set and read degraded.
struct ReadFault : TransientFault {
  ReadFault(ServerId at, const std::string& why)
      : TransientFault("kv read fault on server " + std::to_string(at) + ": " +
                       why),
        server(at) {}
  ServerId server;
};

/// A fragment write failed transiently on `server`. No KV metadata was
/// changed; retrying the put rewrites every fragment under the same keys.
struct WriteFault : TransientFault {
  explicit WriteFault(ServerId at)
      : TransientFault("kv write fault on server " + std::to_string(at)),
        server(at) {}
  ServerId server;
};

class KvStore {
 public:
  KvStore(cluster::Cluster& cluster, meta::MappingTable& table,
          const KvConfig& config);

  /// Write (create or update) an object of `bytes`, performing any pending
  /// lazy transition. `now` is the current balancing epoch (for heat).
  OpResult put(ObjectId oid, std::uint64_t bytes, Epoch now);

  /// Payload-carrying put: same flow, but fragment bytes are materialized
  /// in the attached PayloadStore. Requires enable_payloads().
  OpResult put_value(ObjectId oid, std::span<const std::uint8_t> value,
                     Epoch now);

  /// Read an object. Intermediate states read from the source servers,
  /// which hold the latest bytes (paper §III-C read-correctness rule).
  OpResult get(ObjectId oid, Epoch now);

  /// Degraded read with `down` servers unavailable: replicated objects fall
  /// back to a surviving replica; encoded objects read any k live shards
  /// and pay the reconstruction cost when parity is involved. Throws
  /// std::runtime_error when too few fragments survive.
  OpResult get_degraded(ObjectId oid, Epoch now,
                        const std::set<ServerId>& down);

  /// Payload-carrying get. `down` lists unavailable servers: replicated
  /// objects fall back to another replica, encoded objects reconstruct from
  /// any k surviving shards (degraded read). Throws if unrecoverable.
  /// A non-empty `down` routes device accounting through get_degraded; the
  /// accounted OpResult is copied to `op_out` when non-null.
  std::vector<std::uint8_t> get_value(
      ObjectId oid, Epoch now, const std::set<ServerId>& down = {},
      OpResult* op_out = nullptr);

  /// Delete an object everywhere.
  bool remove(ObjectId oid);

  /// Eagerly move an object's fragments to `dst` keeping its scheme; bulk
  /// copy through the network (this is what EDM does, and what Chameleon
  /// falls back to for long-cold data). `traffic` attributes the bytes.
  Nanos relocate(ObjectId oid, const meta::ServerSet& dst,
                 cluster::Traffic traffic, Epoch now = 0);

  /// Eagerly convert an object to `target` scheme on `dst` (HDFS-RAID-style
  /// re-encode; used by the REP+EC baseline and the eager-conversion
  /// ablation). Reads current fragments, rewrites under the new scheme.
  Nanos convert(ObjectId oid, meta::RedState target,
                const meta::ServerSet& dst, cluster::Traffic traffic,
                Epoch now = 0);

  /// Default placement for a fresh object under `scheme`.
  meta::ServerSet place(ObjectId oid, meta::RedState scheme) const;

  /// Ring position of an object (FNV-1a + finalizer; see common/fnv.hpp).
  static std::uint64_t placement_hash(ObjectId oid) {
    return mix64(fnv1a64(oid));
  }

  void enable_payloads();
  bool payloads_enabled() const { return payloads_ != nullptr; }
  const PayloadStore* payload_store() const { return payloads_.get(); }
  PayloadStore* payload_store_mutable() { return payloads_.get(); }

  const KvConfig& config() const { return config_; }
  cluster::Cluster& cluster() { return cluster_; }
  meta::MappingTable& table() { return table_; }
  const ec::ReedSolomon& codec() const { return codec_; }

  std::size_t fragments_of(meta::RedState scheme) const {
    return scheme == meta::RedState::kRep ? config_.replicas : config_.ec_total;
  }

  /// Bytes stored on ONE server for an object under `scheme`.
  std::uint64_t fragment_bytes(std::uint64_t object_bytes,
                               meta::RedState scheme) const;

 private:
  using FragmentPayloads = std::vector<std::vector<std::uint8_t>>;

  OpResult put_impl(ObjectId oid, std::uint64_t bytes, Epoch now,
                    const std::vector<std::uint8_t>* value);

  /// Per-fragment payloads for `scheme` (replica copies or RS shards).
  FragmentPayloads shard_payload(const std::vector<std::uint8_t>& value,
                                 meta::RedState scheme) const;

  /// Write all fragments of an object to `servers` under `scheme` with
  /// placement `version`; returns max device latency (parallel fan-out).
  Nanos write_fragments(ObjectId oid, std::uint64_t bytes,
                        meta::RedState scheme, const meta::ServerSet& servers,
                        std::uint32_t version,
                        const FragmentPayloads* payloads = nullptr,
                        flashsim::StreamHint hint =
                            flashsim::StreamHint::kDefault);
  /// Stream hint for an object with write heat `heat` (kDefault when
  /// multi-stream is disabled).
  flashsim::StreamHint stream_hint(double heat) const;
  void remove_fragments(ObjectId oid, meta::RedState scheme,
                        const meta::ServerSet& servers, std::uint32_t version);
  Nanos read_fragments_for_object(const meta::ObjectMeta& m);
  /// Read one fragment; throws ReadFault(server) when the fragment is
  /// missing or the device read fails transiently.
  Nanos read_one_fragment(ServerId server, std::uint64_t key);
  Nanos network_fanout(std::uint64_t bytes, meta::RedState scheme,
                       cluster::Traffic traffic);

  /// Gather the latest payload of an object from its source servers.
  std::vector<std::uint8_t> gather_value(const meta::ObjectMeta& m,
                                         const std::set<ServerId>& down) const;

  cluster::Cluster& cluster_;
  meta::MappingTable& table_;
  KvConfig config_;
  ec::ReedSolomon codec_;
  std::unique_ptr<PayloadStore> payloads_;
};

}  // namespace chameleon::kv

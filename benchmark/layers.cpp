#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cluster/hash_ring.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "dist/router.hpp"
#include "durability/wal.hpp"
#include "ec/reed_solomon.hpp"
#include "flashsim/ftl.hpp"
#include "kv/client.hpp"
#include "load.hpp"
#include "svc/client_conn.hpp"
#include "svc/store_pipeline.hpp"
#include "svc/wire.hpp"

namespace chameleon::bench {

namespace {

/// Keeps timed results observable so the compiler cannot drop the work.
std::atomic<std::uint64_t> g_sink{0};

void consume(std::uint64_t v) {
  g_sink.fetch_add(v, std::memory_order_relaxed);
}

/// Median over `batches` of the mean ns per call in a batch of `per_batch`
/// calls: calls far shorter than a clock read are timed in bulk.
template <typename Fn>
double batched_ns(int batches, int per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const Nanos t0 = now_ns();
    for (int i = 0; i < per_batch; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / per_batch);
  }
  return median(per_call);
}

std::vector<std::uint8_t> pattern(std::size_t bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> out(bytes);
  Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void preload_store(core::Chameleon& system, const ServeSpec& spec,
                   const std::vector<std::uint8_t>& value) {
  for (std::uint64_t k = 0; k < spec.keys; ++k) {
    system.client().put(key_name(k), value, system.current_epoch());
  }
}

}  // namespace

std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    PromSample sample;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string_view::npos) continue;
    sample.name = std::string(line.substr(0, i));
    if (line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size()) break;
        const std::string key(line.substr(i, eq - i));
        std::string value;
        i = eq + 2;  // skip ="
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            value.push_back(line[i] == 'n' ? '\n' : line[i]);
          } else {
            value.push_back(line[i]);
          }
          ++i;
        }
        ++i;  // closing quote
        if (i < line.size() && line[i] == ',') ++i;
        sample.labels[key] = std::move(value);
      }
      ++i;  // '}'
    }
    if (i >= line.size()) continue;
    sample.value = std::strtod(std::string(line.substr(i)).c_str(), nullptr);
    out.push_back(std::move(sample));
  }
  return out;
}

double prom_sum(
    const std::vector<PromSample>& samples, std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        match) {
  double total = 0.0;
  for (const PromSample& s : samples) {
    if (s.name != name) continue;
    bool all = true;
    for (const auto& [key, value] : match) {
      const auto it = s.labels.find(std::string(key));
      all = all && it != s.labels.end() && it->second == value;
    }
    if (all) total += s.value;
  }
  return total;
}

void emit_layers(const LayerValues& values, Report& report) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerRow& row : kLayerRows) known = known || row.name == name;
    if (!known) throw std::logic_error("unknown layer metric " + name);
  }
  for (const LayerRow& row : kLayerRows) {
    const auto it = values.find(std::string(row.name));
    report.layer(std::string(row.name), it == values.end() ? 0.0 : it->second,
                 std::string(row.unit));
  }
}

core::ChameleonConfig server_store_config(const ServeSpec& spec) {
  const std::uint64_t per_server = static_cast<std::uint64_t>(
                                       spec.capacity_mb) *
                                   1024 * 1024 * 3 / 2 / kFlashServers;
  core::ChameleonConfig config;
  config.servers = kFlashServers;
  config.ssd = flashsim::SsdConfig::sized_for(per_server, 0.7);
  return config;
}

ByteLayerParams serve_byte_params(const ServeSpec& spec,
                                  const std::filesystem::path& scratch_dir) {
  const core::ChameleonConfig store = server_store_config(spec);
  ByteLayerParams p;
  p.value_bytes = spec.value_bytes;
  p.read_ratio = spec.read_ratio;
  p.keys = spec.keys;
  p.device = store.ssd;
  // Every value occupies whole pages once per replica (new objects start
  // replicated); a node behind the router holds one RS(2+1) shard per key,
  // half the value plus its shard header.
  const std::uint64_t page = store.ssd.page_size_bytes;
  const std::uint64_t stored =
      spec.nodes > 1 ? spec.value_bytes / 2 + 64 : spec.value_bytes;
  const std::uint64_t value_pages = (stored + page - 1) / page;
  const double live_pages = static_cast<double>(
      spec.keys * value_pages * store.kv.replicas);
  p.utilisation = std::min(
      0.9, live_pages / (static_cast<double>(store.ssd.logical_pages()) *
                         store.servers));
  if (spec.nodes > 1) {
    // The router's ring: one point set per node, k + m successors.
    p.ring_servers = spec.nodes;
    p.ring_vnodes = 64;
    p.ring_successors = 3;
  } else {
    p.ring_servers = store.servers;
    p.ring_vnodes = store.ring_vnodes;
    p.ring_successors = store.kv.replicas;
  }
  p.scratch_dir = scratch_dir;
  return p;
}

void time_byte_layers(const ByteLayerParams& params, std::uint64_t seed,
                      LayerValues& out) {
  const std::vector<std::uint8_t> value = pattern(params.value_bytes, seed);

  // Wire codec on the workload's own mix of requests: body + frame encode,
  // then FrameDecoder feed + next over the encoded stream.
  constexpr int kFrames = 256;
  Xoshiro256 rng(seed + 1);
  std::vector<std::pair<bool, std::string>> requests;
  for (int i = 0; i < kFrames; ++i) {
    const std::string key = key_name(rng.next_below(params.keys));
    requests.emplace_back(rng.next_bool(params.read_ratio), key);
  }
  std::vector<std::uint8_t> wire;
  svc::Frame frame;
  out["svc.wire.encode_ns"] = batched_ns(21, kFrames, [&](int i) {
    if (i == 0) wire.clear();
    const auto& [is_get, key] = requests[static_cast<std::size_t>(i)];
    frame.op = is_get ? svc::Op::kGet : svc::Op::kPut;
    frame.request_id = static_cast<std::uint64_t>(i) + 1;
    frame.payload.clear();
    if (is_get) {
      svc::encode_key_body(key, frame.payload);
    } else {
      svc::encode_put_body(key, value, frame.payload);
    }
    svc::encode_frame(frame, wire);
  });
  consume(wire.size());
  out["svc.wire.decode_ns"] = batched_ns(21, 1, [&](int) {
    svc::FrameDecoder decoder;
    decoder.feed(wire);
    svc::Frame f;
    while (decoder.next(f) == svc::DecodeResult::kFrame) {
      consume(f.payload.size());
    }
  }) / kFrames;

  const double kib = static_cast<double>(params.value_bytes) / 1024.0;
  out["common.crc32c_ns_per_kib"] =
      batched_ns(21, 200, [&](int) { consume(crc32c(value)); }) / kib;

  // RS(3,2): the dist router's stripe geometry, one data shard lost.
  const ec::ReedSolomon rs(3, 2);
  std::vector<std::vector<std::uint8_t>> shards;
  out["ec.encode_us"] = batched_ns(21, 20, [&](int) {
                          shards = rs.encode_object(value);
                          consume(shards.size());
                        }) / 1e3;
  std::vector<std::optional<std::vector<std::uint8_t>>> survivors(
      shards.begin(), shards.end());
  survivors[0].reset();
  out["ec.reconstruct_us"] = batched_ns(21, 20, [&](int) {
                               consume(rs.reconstruct_data(survivors).size());
                             }) / 1e3;

  const cluster::HashRing ring(params.ring_servers, params.ring_vnodes);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(key_name(rng.next_below(params.keys)));
  }
  out["cluster.ring_lookup_ns"] = batched_ns(21, 1024, [&](int i) {
    const std::string& key = keys[static_cast<std::size_t>(i)];
    consume(ring.successors(cluster::key_point(key), params.ring_successors)
                .front());
  });

  // WAL: appends with fsync left to the caller, then append + sync pairs.
  std::filesystem::create_directories(params.scratch_dir);
  {
    durability::WalWriter wal(params.scratch_dir,
                              durability::FsyncPolicy::kAlways, 64ull << 20, 0);
    wal.set_auto_fsync(false);
    wal.open_segment(1, 1);
    durability::WalRecord record;
    record.type = durability::WalRecordType::kPutValue;
    record.value = value;
    std::vector<double> append_ns;
    for (int i = 0; i < 500; ++i) {
      record.oid = static_cast<ObjectId>(i);
      const Nanos t0 = now_ns();
      wal.append(record);
      append_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    std::vector<double> fsync_ns;
    for (int i = 0; i < 30; ++i) {
      wal.append(record);
      const Nanos t0 = now_ns();
      wal.sync();
      fsync_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    wal.close();
    out["durability.append_us"] = median(append_ns) / 1e3;
    out["durability.fsync_us"] = median(fsync_ns) / 1e3;
  }
  std::filesystem::remove_all(params.scratch_dir);

  // One device at the workload's utilisation, timed once GC is steady: the
  // mean covers the GC work writes trigger.
  flashsim::Ftl ftl(params.device);
  const auto live = static_cast<Lpn>(
      std::max(1.0, params.utilisation *
                        static_cast<double>(params.device.logical_pages())));
  for (Lpn lpn = 0; lpn < live; ++lpn) ftl.write(lpn);
  const std::uint64_t physical = params.device.physical_pages();
  for (std::uint64_t i = 0; i < 2 * physical; ++i) {
    ftl.write(static_cast<Lpn>(rng.next_below(live)));
  }
  const Nanos t0 = now_ns();
  for (std::uint64_t i = 0; i < physical; ++i) {
    ftl.write(static_cast<Lpn>(rng.next_below(live)));
  }
  out["flashsim.write_ns"] =
      static_cast<double>(now_ns() - t0) / static_cast<double>(physical);
}

void time_store_layers(const ServeSpec& spec, std::uint64_t seed,
                       LayerValues& out) {
  const std::vector<std::uint8_t> value = pattern(spec.value_bytes, seed);
  constexpr int kOps = 3000;

  {
    // StorePipeline handoff: one job in flight at a time, as with one
    // connection's synchronous client.
    core::Chameleon system(server_store_config(spec));
    preload_store(system, spec, value);
    svc::StorePipelineOptions options;
    options.workers = spec.server_workers;
    svc::StorePipeline pipeline(system, options);
    pipeline.start();
    const std::uint64_t drains_before = pipeline.drains();
    OpStream stream(spec, seed + 7, 0);
    std::vector<double> handoff;
    std::vector<double> exec;
    std::atomic<std::uint64_t> errors{0};
    for (int i = 0; i < kOps; ++i) {
      const OpStream::Op op = stream.next();
      const std::string key = key_name(op.key);
      std::atomic<Nanos> started{0};
      std::atomic<Nanos> finished{0};
      const Nanos submitted = now_ns();
      pipeline.submit([&] {
        started.store(now_ns(), std::memory_order_relaxed);
        try {
          if (op.is_get) {
            consume(system.client().get(key, system.current_epoch()).size());
          } else {
            system.client().put(key, value, system.current_epoch());
          }
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        finished.store(now_ns(), std::memory_order_release);
      });
      while (finished.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
      }
      handoff.push_back(static_cast<double>(started.load() - submitted));
      exec.push_back(static_cast<double>(finished.load() - started.load()));
    }
    const std::uint64_t drains = pipeline.drains() - drains_before;
    pipeline.stop();
    if (errors.load() > 0) throw std::runtime_error("pipeline store op failed");
    out["svc.pipeline.handoff_us"] = median(handoff) / 1e3;
    out["svc.pipeline.exec_us"] = median(exec) / 1e3;
    out["svc.pipeline.drains_per_kop"] =
        static_cast<double>(drains) * 1000.0 / kOps;
  }

  // The same op stream straight into core::Chameleon, with a balancing
  // epoch after each third of it.
  core::Chameleon system(server_store_config(spec));
  preload_store(system, spec, value);
  OpStream stream(spec, seed + 7, 0);
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  std::vector<double> epoch_ns;
  constexpr int kEpochs = 3;
  for (int i = 0; i < kOps; ++i) {
    const OpStream::Op op = stream.next();
    const std::string key = key_name(op.key);
    const Nanos t0 = now_ns();
    if (op.is_get) {
      consume(system.client().get(key, system.current_epoch()).size());
      get_ns.push_back(static_cast<double>(now_ns() - t0));
    } else {
      system.client().put(key, value, system.current_epoch());
      put_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    if ((i + 1) % (kOps / kEpochs) == 0) {
      const Nanos e0 = now_ns();
      system.advance_time(system.now() + system.config().epoch_length);
      epoch_ns.push_back(static_cast<double>(now_ns() - e0));
    }
  }
  out["kv.get_us"] = median(get_ns) / 1e3;
  out["kv.put_us"] = median(put_ns) / 1e3;
  out["core.epoch_ms"] = median(epoch_ns) / 1e6;
  out["core.epochs"] = static_cast<double>(epoch_ns.size());
}

void time_router_layers(const ServeSpec& spec,
                        const std::vector<std::uint16_t>& node_ports,
                        std::uint64_t seed, LayerValues& out) {
  dist::RouterConfig config;
  for (std::size_t i = 0; i < node_ports.size(); ++i) {
    dist::PeerSpec peer;
    peer.id = static_cast<std::uint32_t>(i + 1);
    peer.port = node_ports[i];
    config.nodes.push_back(peer);
  }
  config.mode = dist::RouteMode::kStripe;
  config.ec_k = 2;
  config.ec_m = 1;
  dist::Router router(config);
  router.start();
  const Nanos deadline = now_ns() + 10 * kSecond;
  while (!router.serving() && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!router.serving()) {
    throw std::runtime_error("in-process router not serving");
  }

  // The router sheds a call now and then (retry_later) even with every node
  // up; retry it on svc::ClientPool's budget, as its clients do, and time
  // the whole call.
  const kv::RetryPolicy policy;
  const auto timed = [&](auto&& call) {
    const Nanos t0 = now_ns();
    svc::Status s = call();
    for (std::size_t attempt = 1;
         s == svc::Status::kRetryLater && attempt < policy.max_attempts;
         ++attempt) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(policy.base_backoff));
      s = call();
    }
    if (s != svc::Status::kOk) {
      throw std::runtime_error(std::string("in-process router: ") +
                               svc::status_name(s));
    }
    return static_cast<double>(now_ns() - t0);
  };
  const std::vector<std::uint8_t> value = pattern(spec.value_bytes, seed);
  constexpr int kOps = 300;
  std::vector<double> put_ns;
  std::vector<double> get_ns;
  std::vector<std::uint8_t> got;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "layer-" + std::to_string(i);
    put_ns.push_back(timed([&] { return router.route_put(key, value); }));
  }
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "layer-" + std::to_string(i);
    get_ns.push_back(timed([&] { return router.route_get(key, got); }));
    if (got != value) {
      throw std::runtime_error("in-process router: wrong value for " + key);
    }
  }
  router.stop();
  out["dist.put_us"] = median(put_ns) / 1e3;
  out["dist.get_us"] = median(get_ns) / 1e3;
}

double node_rtt_us(std::uint16_t port) {
  svc::ClientPool pool(client_config(port), 1);
  pool.ping();
  std::vector<double> rtt;
  for (int i = 0; i < 1000; ++i) {
    const Nanos t0 = now_ns();
    pool.ping();
    rtt.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(rtt) / 1e3;
}

}  // namespace chameleon::bench

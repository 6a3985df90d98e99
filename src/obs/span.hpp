// Request-level latency attribution for the service pipeline: a Span stamps
// monotonic timestamps at each stage a served request passes through
// (decode, admission, queue wait, store execution with its WAL-fsync
// sub-stage, completion drain, socket flush), partitioning the request's
// wall time exactly — the stage durations always sum to the end-to-end
// span total, so "where did the time go" is arithmetic, not folklore.
//
// Overhead discipline (the PACEMAKER rule: telemetry must be cheap enough
// to leave on): Span::begin() performs exactly one relaxed obs::enabled()
// load when observability is off and reads the clock only when it is on;
// stamp()/add()/carve() on an inactive span touch a single bool. The test
// suite pins this down by swapping the span clock for a counting stub and
// asserting the disabled path makes zero clock reads.
//
// Sub-stages recorded deep in the stack (the WAL append+fsync inside a
// journaled PUT happens under kv::Client, far below the svc coordinator that
// owns the span) report through a thread-local accumulator: the low layer
// times itself with SpanStageScope, the span owner takes the accumulated
// nanoseconds with span_tls_take() and carve()s them out of the enclosing
// stage.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace chameleon::obs {

/// Pipeline stages of one served request, in the order a request passes
/// them. The names are the `stage` label of chameleon_svc_stage_seconds
/// and the keys of the kSvcSlowRequest breakdown.
enum class SvcStage : std::uint8_t {
  kDecode = 0,   ///< frame extraction/validation from buffered socket bytes
  kAdmission,    ///< fault rolls + admission-control decision
  kQueue,        ///< admitted -> the store coordinator picked it up
  kStoreExec,    ///< KvStore/Chameleon execution on the store coordinator
  kWalFsync,     ///< WAL append + fsync sub-stage (carved out of store exec)
  kCompletion,   ///< coordinator done -> IO thread drained the completion
  kFlush,        ///< response enqueue + socket flush attempt
  kCount
};

const char* svc_stage_name(SvcStage s);

/// Monotonic nanoseconds for span stamping. Defaults to
/// std::chrono::steady_clock; tests swap it to count/replay clock reads.
using SpanClock = std::uint64_t (*)();
std::uint64_t span_now();
/// Install a clock for tests (nullptr restores the real clock). Not for
/// production use; the hook is a relaxed atomic so concurrent spans are safe.
void set_span_clock_for_test(SpanClock clock);

/// One request's stage breakdown. Cheap to move across threads with the
/// request (IO thread -> worker -> IO thread); never shared concurrently.
class Span {
 public:
  /// Inactive span: every operation is a no-op (single bool check).
  Span() = default;

  /// Active iff obs::enabled() — exactly one relaxed load; the clock is
  /// read only when active.
  static Span begin() {
    Span s;
    if (enabled_probe()) {
      s.active_ = true;
      s.begin_ns_ = s.last_ns_ = span_now();
    }
    return s;
  }

  bool active() const { return active_; }

  /// Attribute the time since the previous stamp (or begin()) to `stage`
  /// and advance the stamp cursor. Returns the attributed nanoseconds.
  std::uint64_t stamp(SvcStage stage) {
    if (!active_) return 0;
    const std::uint64_t now = span_now();
    const std::uint64_t delta = now - last_ns_;
    last_ns_ = now;
    ns_[index(stage)] += delta;
    return delta;
  }

  /// Add externally measured time to `stage` without moving the cursor.
  void add(SvcStage stage, std::uint64_t ns) {
    if (!active_) return;
    ns_[index(stage)] += ns;
  }

  /// Re-attribute `ns` of time already stamped into `from` to `to` (a
  /// sub-stage carve-out, e.g. WAL fsync inside store exec). Clamped to
  /// what `from` actually holds, so the stage sum stays an exact partition.
  void carve(SvcStage from, SvcStage to, std::uint64_t ns) {
    if (!active_) return;
    const std::uint64_t moved = ns < ns_[index(from)] ? ns : ns_[index(from)];
    ns_[index(from)] -= moved;
    ns_[index(to)] += moved;
  }

  std::uint64_t ns(SvcStage stage) const { return ns_[index(stage)]; }

  /// Wall time from begin() to the last stamp. Equals attributed_ns() by
  /// construction (stamps partition the interval; carve() preserves sums).
  std::uint64_t total_ns() const { return active_ ? last_ns_ - begin_ns_ : 0; }

  /// Sum of all stage durations.
  std::uint64_t attributed_ns() const {
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns_) total += v;
    return total;
  }

  /// `{"decode":123,...}` with every stage present (zeros included), for the
  /// kSvcSlowRequest trace event's `detail` field. Deterministic key order.
  std::string stages_json() const;

 private:
  static std::size_t index(SvcStage s) { return static_cast<std::size_t>(s); }
  /// obs::enabled() without pulling metrics.hpp into this header.
  static bool enabled_probe();

  bool active_ = false;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(SvcStage::kCount)> ns_{};
};

// --- thread-local sub-stage accumulation -----------------------------------
// For instrumentation sites that cannot see the request's span (they sit
// layers below it on the same thread). The owner resets the bucket before
// descending and takes whatever accumulated on the way back up.

/// Read-and-zero this thread's accumulated nanoseconds for `stage`.
std::uint64_t span_tls_take(SvcStage stage);

/// RAII scope that adds its lifetime to this thread's TLS bucket for
/// `stage`. Inactive (no clock reads) when obs is disabled at construction.
class SpanStageScope {
 public:
  explicit SpanStageScope(SvcStage stage);
  ~SpanStageScope();
  SpanStageScope(const SpanStageScope&) = delete;
  SpanStageScope& operator=(const SpanStageScope&) = delete;

 private:
  SvcStage stage_ = SvcStage::kCount;
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
};

// --- deterministic slow-request sampling -----------------------------------

/// Stateless 1-in-N sampling predicate keyed on (seed, request_id): true
/// when this request is the deterministic sample. Pure function of its
/// arguments (splitmix64 mix), so chaos/replay runs pick byte-identical
/// sample sets regardless of thread scheduling or completion order.
bool span_sampled(std::uint64_t seed, std::uint64_t every,
                  std::uint64_t request_id);

}  // namespace chameleon::obs

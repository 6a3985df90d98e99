#include "kv/client.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace chameleon::kv {

namespace {

void count_retry(const char* op) {
  if (!obs::enabled()) return;
  auto& counter = obs::metrics().counter(
      "chameleon_retries_total", {{"op", op}},
      "Client retry attempts past the first, by operation");
  counter.inc();
}

}  // namespace

OpResult Client::put(std::string_view key, std::span<const std::uint8_t> value,
                     Epoch now) {
  store_.enable_payloads();
  const ObjectId oid = object_id(key);
  const OpResult result = store_.put_value(oid, value, now);
  // Redo-log: the mutation applied; make it durable before acknowledging.
  // The WAL append+fsync reports into the serving span's wal_fsync stage
  // via the thread-local bucket (the svc coordinator carves it out of store
  // exec); a no-op when observability is off or no journal is attached.
  if (journal_ != nullptr) {
    obs::SpanStageScope wal_scope(obs::SvcStage::kWalFsync);
    journal_->on_put_value(oid, value, now);
  }
  return result;
}

OpResult Client::put(std::string_view key, std::string_view value, Epoch now) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(value.data());
  return put(key, std::span<const std::uint8_t>(data, value.size()), now);
}

std::vector<std::uint8_t> Client::get(std::string_view key, Epoch now,
                                      const std::set<ServerId>& down) {
  return store_.get_value(object_id(key), now, down);
}

std::string Client::get_string(std::string_view key, Epoch now,
                               const std::set<ServerId>& down) {
  const auto bytes = get(key, now, down);
  return std::string(bytes.begin(), bytes.end());
}

bool Client::remove(std::string_view key) {
  const ObjectId oid = object_id(key);
  const bool removed = store_.remove(oid);
  if (removed && journal_ != nullptr) {
    obs::SpanStageScope wal_scope(obs::SvcStage::kWalFsync);
    journal_->on_remove(oid);
  }
  return removed;
}

bool Client::contains(std::string_view key) const {
  return store_.table().exists(object_id(key));
}

std::optional<meta::RedState> Client::state_of(std::string_view key) const {
  const auto m = store_.table().get(object_id(key));
  if (!m) return std::nullopt;
  return m->state;
}

Nanos Client::backoff_for(std::size_t attempt) {
  // attempt is 2-based: the first retry waits base_backoff.
  const double exponent = static_cast<double>(attempt - 2);
  const double nominal = static_cast<double>(retry_policy_.base_backoff) *
                         std::pow(retry_policy_.backoff_multiplier, exponent);
  // Deterministic jitter in [1 - j, 1 + j): decorrelates retry storms in a
  // real deployment; here it exercises that the harness stays reproducible.
  const double factor =
      1.0 + retry_policy_.jitter * (2.0 * retry_rng_.next_double() - 1.0);
  return static_cast<Nanos>(nominal * factor);
}

RetryResult Client::put_with_retry(std::string_view key,
                                   std::span<const std::uint8_t> value,
                                   Epoch now) {
  RetryResult result;
  std::string last_error;
  const std::size_t budget = std::max<std::size_t>(1, retry_policy_.max_attempts);
  for (std::size_t attempt = 1; attempt <= budget; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) {
      count_retry("put");
      result.backoff_latency += backoff_for(attempt);
    }
    try {
      result.op = put(key, value, now);
      return result;
    } catch (const TransientFault& e) {
      last_error = e.what();
    }
  }
  throw RetriesExhausted("put", budget, last_error);
}

RetryResult Client::put_with_retry(std::string_view key, std::string_view value,
                                   Epoch now) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(value.data());
  return put_with_retry(key, std::span<const std::uint8_t>(data, value.size()),
                        now);
}

RetryResult Client::get_with_retry(std::string_view key, Epoch now,
                                   const std::set<ServerId>& suspects) {
  const ObjectId oid = object_id(key);
  RetryResult result;
  std::string last_error;
  std::set<ServerId> down;  // servers observed failing during THIS op
  const std::size_t budget = std::max<std::size_t>(1, retry_policy_.max_attempts);
  for (std::size_t attempt = 1; attempt <= budget; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) count_retry("get");
    try {
      result.value = store_.get_value(oid, now, down, &result.op);
      result.degraded = !down.empty();
      // Hedge: the fast path came back over budget (e.g. a stalled node in
      // the read set). Re-issue once as a degraded read that routes around
      // the caller's suspects; the hedge replaces the slow result.
      if (retry_policy_.op_timeout > 0 &&
          result.op.latency > retry_policy_.op_timeout &&
          retry_policy_.hedge_degraded_reads && down.empty() &&
          !suspects.empty()) {
        result.hedged = true;
        result.degraded = true;
        result.value = store_.get_value(oid, now, suspects, &result.op);
      }
      return result;
    } catch (const ReadFault& e) {
      // We know exactly which server failed: go degraded immediately, no
      // backoff — surviving redundancy is already there to be read.
      last_error = e.what();
      down.insert(e.server);
      down.insert(suspects.begin(), suspects.end());
    } catch (const TransientFault& e) {
      // Anonymous transient failure (e.g. the response was dropped on the
      // network): back off and retry the same path.
      last_error = e.what();
      result.backoff_latency += backoff_for(attempt + 1);
    }
  }
  throw RetriesExhausted("get", budget, last_error);
}

}  // namespace chameleon::kv

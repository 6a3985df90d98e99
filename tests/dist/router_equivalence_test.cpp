// Worker-count equivalence through the dist routing tier (ctest label
// `dist`): the same deterministic workload routed into a 3-node cluster
// whose servers run 1 shard worker and one whose servers run 4 must produce
// identical per-op outcomes and identical aggregate digests, in both
// replicate and stripe mode. Every GET is also checked against an in-test
// model of the last acked write, so the two clusters cannot agree on a
// wrong answer.
#include "dist/router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mini_cluster.hpp"

namespace chameleon::dist {
namespace {

// Deterministic mixed workload applied through Router's in-process routing
// core (no TCP front door, so op order — and thus version assignment — is
// exactly the program order on both clusters).
void run_workload_and_compare(Router& a, Router& b) {
  // Last acked value per key; an acked DELETE erases the entry.
  std::map<std::string, std::vector<std::uint8_t>> model;
  std::vector<std::uint8_t> got_a;
  std::vector<std::uint8_t> got_b;
  int gets_with_value = 0;
  for (int step = 0; step < 400; ++step) {
    // 40 keys, revisited with overwrites. The step/5 term shifts each key's
    // slot relative to the action cycle, so every key sees puts, deletes and
    // reads over the run.
    const int slot = (step * 13 + step / 5) % 40;
    const std::string key = "eq-" + std::to_string(slot);
    const int action = step % 5;
    if (action <= 2) {  // 60% puts (incl. overwrites)
      std::vector<std::uint8_t> value(
          static_cast<std::size_t>(64 + (step * 31) % 700));
      for (std::size_t i = 0; i < value.size(); ++i) {
        value[i] = static_cast<std::uint8_t>((step + static_cast<int>(i)) & 0xff);
      }
      const svc::Status sa = a.route_put(key, value);
      const svc::Status sb = b.route_put(key, value);
      ASSERT_EQ(sa, sb) << "put diverged at step " << step;
      ASSERT_EQ(sa, svc::Status::kOk) << "put failed at step " << step;
      model[key] = value;
    } else if (action == 3) {  // 20% deletes (some of absent keys)
      const svc::Status sa = a.route_delete(key);
      const svc::Status sb = b.route_delete(key);
      ASSERT_EQ(sa, sb) << "delete diverged at step " << step;
      ASSERT_EQ(sa, svc::Status::kOk) << "delete failed at step " << step;
      model.erase(key);
    } else {  // 20% reads
      got_a.clear();
      got_b.clear();
      const svc::Status sa = a.route_get(key, got_a);
      const svc::Status sb = b.route_get(key, got_b);
      ASSERT_EQ(sa, sb) << "get status diverged at step " << step;
      const auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_EQ(sa, svc::Status::kNotFound) << "get at step " << step;
      } else {
        ASSERT_EQ(sa, svc::Status::kOk) << "get at step " << step;
        ASSERT_EQ(got_a, it->second) << "get value wrong at step " << step;
        ASSERT_EQ(got_b, it->second) << "get value wrong at step " << step;
        ++gets_with_value;
      }
    }
  }
  // The schedule must actually read back written values, not only misses.
  EXPECT_GT(gets_with_value, 40);
}

void run_equivalence(RouteMode mode) {
  MiniCluster one_worker(1);
  MiniCluster four_workers(4);
  Router router_a(test_router_config(one_worker, mode));
  Router router_b(test_router_config(four_workers, mode));
  router_a.start();
  router_b.start();
  ASSERT_TRUE(await_live(router_a, 3));
  ASSERT_TRUE(await_live(router_b, 3));

  run_workload_and_compare(router_a, router_b);

  // Identical op sequence -> identical versioned blobs on identically
  // placed nodes -> identical whole-cluster fingerprint.
  EXPECT_EQ(router_a.aggregate_digest(), router_b.aggregate_digest());
  EXPECT_EQ(router_a.stats().protocol_errors_total, 0u);
  EXPECT_EQ(router_b.stats().protocol_errors_total, 0u);

  router_a.stop();
  router_b.stop();
}

TEST(RouterEquivalence, WorkerCountsAgreeInReplicateMode) {
  run_equivalence(RouteMode::kReplicate);
}

TEST(RouterEquivalence, WorkerCountsAgreeInStripeMode) {
  run_equivalence(RouteMode::kStripe);
}

}  // namespace
}  // namespace chameleon::dist

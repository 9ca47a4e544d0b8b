// plan_upload_order() (incremental scoring) must commit *exactly* the
// schedule the full-replan oracle plan_upload_order_reference() commits —
// order, cumulative bytes and per-layer latency reduction — for any model,
// network condition, and target mask. The greedy loop amplifies any
// divergence (one differing pick reshapes every later round), so equality
// here is the strongest cheap check of the fast path's determinism story.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "device/device_profile.hpp"
#include "nn/model_zoo.hpp"
#include "partition/upload_order.hpp"

namespace perdnn {
namespace {

struct Fixture {
  DnnModel model;
  DnnProfile client;
  PartitionContext context;

  explicit Fixture(DnnModel model_in) : model(std::move(model_in)) {
    client = profile_on_client(model, odroid_xu4_profile());
    const DnnProfile server = profile_on_client(model, titan_xp_profile());
    context.model = &model;
    context.client_profile = &client;
    context.server_time = server.client_time;
  }
};

/// Random but valid target: layer 0 stays on the client, the rest is a coin
/// flip — this produces fragmented multi-run layouts the DP-derived plans
/// never have, which is exactly where the incremental bookkeeping can slip.
PartitionPlan random_target(const DnnModel& model, Rng& rng,
                            double server_prob) {
  PartitionPlan target;
  target.location.assign(static_cast<std::size_t>(model.num_layers()),
                         ExecLocation::kClient);
  for (std::size_t i = 1; i < target.location.size(); ++i)
    if (rng.uniform(0.0, 1.0) < server_prob)
      target.location[i] = ExecLocation::kServer;
  return target;
}

void expect_identical(const UploadSchedule& a, const UploadSchedule& b) {
  ASSERT_EQ(a.order.size(), b.order.size());
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.cumulative_bytes, b.cumulative_bytes);
  // Budgeted caches price entries from this, so it must match bit for bit.
  EXPECT_EQ(a.latency_reduction, b.latency_reduction);
}

class UploadOrderFastTest
    : public ::testing::TestWithParam<UploadEnumeration> {};

TEST_P(UploadOrderFastTest, MatchesReferenceOnDerivedPlan) {
  for (int width : {2, 4, 6}) {
    Fixture f(build_toy_model(width));
    const PartitionPlan target = compute_best_plan(f.context);
    const UploadSchedule ref = plan_upload_order_reference(
        f.context, target, {.enumeration = GetParam()});
    const UploadSchedule fast = plan_upload_order(
        f.context, target, {.enumeration = GetParam()});
    expect_identical(ref, fast);
  }
}

TEST_P(UploadOrderFastTest, MatchesReferenceOnRandomMasks) {
  Rng rng(99);
  Fixture f(build_toy_model(5));
  for (int trial = 0; trial < 40; ++trial) {
    const PartitionPlan target =
        random_target(f.model, rng, rng.uniform(0.2, 0.9));
    // Random network conditions stress different DP shapes.
    f.context.net.uplink_bytes_per_sec =
        mbps_to_bytes_per_sec(rng.uniform(2.0, 200.0));
    f.context.net.downlink_bytes_per_sec =
        mbps_to_bytes_per_sec(rng.uniform(2.0, 200.0));
    f.context.net.rtt = rng.uniform(1e-4, 2e-2);
    const UploadSchedule ref = plan_upload_order_reference(
        f.context, target, {.enumeration = GetParam()});
    const UploadSchedule fast = plan_upload_order(
        f.context, target, {.enumeration = GetParam()});
    expect_identical(ref, fast);
  }
}

TEST_P(UploadOrderFastTest, MatchesReferenceOnRandomServerTimes) {
  Rng rng(7);
  Fixture f(build_toy_model(4));
  const std::vector<Seconds> base = f.context.server_time;
  for (int trial = 0; trial < 25; ++trial) {
    // Perturbed estimates move the plan's crossing points around; ties and
    // zero-benefit tails (everything already offloaded well) appear often.
    for (std::size_t i = 0; i < f.context.server_time.size(); ++i)
      f.context.server_time[i] = base[i] * rng.uniform(0.05, 20.0);
    const PartitionPlan target =
        random_target(f.model, rng, rng.uniform(0.3, 1.0));
    const UploadSchedule ref = plan_upload_order_reference(
        f.context, target, {.enumeration = GetParam()});
    const UploadSchedule fast = plan_upload_order(
        f.context, target, {.enumeration = GetParam()});
    expect_identical(ref, fast);
  }
}

TEST_P(UploadOrderFastTest, MatchesReferenceOnInception) {
  Fixture f(build_inception21k());
  const PartitionPlan target = compute_best_plan(f.context);
  const UploadSchedule ref = plan_upload_order_reference(
      f.context, target, {.enumeration = GetParam()});
  const UploadSchedule fast = plan_upload_order(
      f.context, target, {.enumeration = GetParam()});
  expect_identical(ref, fast);
}

INSTANTIATE_TEST_SUITE_P(AllEnumerations, UploadOrderFastTest,
                         ::testing::Values(UploadEnumeration::kExact,
                                           UploadEnumeration::kAnchored),
                         [](const auto& info) {
                           return info.param == UploadEnumeration::kExact
                                      ? "Exact"
                                      : "Anchored";
                         });

}  // namespace
}  // namespace perdnn

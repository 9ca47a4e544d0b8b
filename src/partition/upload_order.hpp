// Efficiency-ordered incremental upload (Section 3.C.2, after E-IONN).
//
// Given a target partitioning plan, the server-side layers must be shipped
// to the server (by the client over Wi-Fi, or between edge servers over the
// backhaul for proactive migration). The order matters: sending
// high-benefit layers first lets partial deployments already offload most of
// the work. The paper enumerates every run of successive server-side layers
// ("partitions"), scores each by
//
//     efficiency = (latency reduction if this run becomes available) / bytes
//
// greedily commits the best run, and re-scores the remainder.
#pragma once

#include <vector>

#include "partition/partition.hpp"

namespace perdnn {

/// How candidate runs are enumerated in each greedy round.
enum class UploadEnumeration {
  /// Every contiguous sub-run of every remaining segment (the paper's
  /// algorithm; O(S^2) candidates per round).
  kExact,
  /// Only sub-runs anchored at a boundary of a remaining segment. Near-exact
  /// in practice (un-anchored runs pay two extra cut crossings) and O(S)
  /// candidates per round — used inside the large-scale simulator.
  kAnchored,
};

struct UploadPlannerConfig {
  UploadEnumeration enumeration = UploadEnumeration::kExact;
};

/// The committed upload order plus byte bookkeeping.
struct UploadSchedule {
  /// Server-side layers in the order their weights are sent.
  std::vector<LayerId> order;
  /// Cumulative weight bytes after each entry of `order`.
  std::vector<Bytes> cumulative_bytes;
  /// Latency reduction attributed to each entry of `order`: the committed
  /// run's benefit apportioned across its layers by weight-byte share
  /// (equal split for zero-byte runs). Summing a prefix approximates the
  /// latency saved when that prefix is server-resident — the per-layer form
  /// of the efficiency metric the greedy planner ranks runs by, and what
  /// budgeted caches use to price an entry in saved-seconds-per-byte.
  std::vector<Seconds> latency_reduction;

  Bytes total_bytes() const {
    return cumulative_bytes.empty() ? 0 : cumulative_bytes.back();
  }

  /// Number of leading entries fully transferred after `sent_bytes`.
  std::size_t prefix_count(Bytes sent_bytes) const;

  /// Per-layer availability mask after `sent_bytes` arrived (size =
  /// model.num_layers(); layers outside the schedule are unavailable).
  std::vector<bool> uploaded_after(const DnnModel& model,
                                   Bytes sent_bytes) const;

  /// Availability mask when the first `count` entries arrived.
  std::vector<bool> uploaded_prefix(const DnnModel& model,
                                    std::size_t count) const;
};

/// Computes the greedy efficiency-ordered schedule for the server-side
/// layers of `target` under the given context. Candidates are scored
/// incrementally: the forward and backward DP rows are refreshed once per
/// greedy round (O(layers)), each candidate is then approximated in O(1),
/// and near-best contenders are exactly re-scored with `plan_latency`, so
/// the committed schedule is byte-identical to
/// plan_upload_order_reference() (see DESIGN.md, "Single-query fast path").
UploadSchedule plan_upload_order(const PartitionContext& context,
                                 const PartitionPlan& target,
                                 UploadPlannerConfig config = {});

/// Test oracle for plan_upload_order(): the same greedy loop scoring every
/// candidate with a full forward DP (`plan_latency`), the original
/// O(layers) cost per candidate. Kept for the equivalence tests and the
/// `bench_micro` speed-up baseline; production callers use
/// plan_upload_order().
UploadSchedule plan_upload_order_reference(const PartitionContext& context,
                                           const PartitionPlan& target,
                                           UploadPlannerConfig config = {});

}  // namespace perdnn

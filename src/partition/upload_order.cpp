#include "partition/upload_order.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace perdnn {

std::size_t UploadSchedule::prefix_count(Bytes sent_bytes) const {
  std::size_t count = 0;
  while (count < cumulative_bytes.size() &&
         cumulative_bytes[count] <= sent_bytes)
    ++count;
  return count;
}

std::vector<bool> UploadSchedule::uploaded_after(const DnnModel& model,
                                                 Bytes sent_bytes) const {
  return uploaded_prefix(model, prefix_count(sent_bytes));
}

std::vector<bool> UploadSchedule::uploaded_prefix(const DnnModel& model,
                                                  std::size_t count) const {
  PERDNN_CHECK(count <= order.size());
  std::vector<bool> mask(static_cast<std::size_t>(model.num_layers()), false);
  for (std::size_t i = 0; i < count; ++i)
    mask[static_cast<std::size_t>(order[i])] = true;
  return mask;
}

namespace {

/// A contiguous run [first, last] of layer ids still awaiting upload.
struct Run {
  LayerId first;
  LayerId last;
};

struct Candidate {
  LayerId first = kNoLayer;
  LayerId last = kNoLayer;
  double efficiency = -kInfSeconds;
  Seconds benefit = -kInfSeconds;
  Bytes bytes = 0;

  bool better_than(const Candidate& other) const {
    if (efficiency != other.efficiency) return efficiency > other.efficiency;
    if (benefit != other.benefit) return benefit > other.benefit;
    return bytes < other.bytes;  // prefer cheaper on full ties
  }
};

Bytes run_bytes(const DnnModel& model, LayerId first, LayerId last) {
  Bytes total = 0;
  for (LayerId id = first; id <= last; ++id)
    total += model.layer(id).weight_bytes;
  return total;
}

/// Appends the committed run [best.first, best.last] to the schedule,
/// splitting the run's latency benefit across its layers by weight-byte
/// share (equal split when the run carries no weight bytes). Shared by the
/// reference and incremental planners so their schedules stay identical.
void commit_run(UploadSchedule& schedule, const DnnModel& model,
                const Candidate& best, Bytes& sent,
                std::vector<bool>& uploaded) {
  const int run_layers = best.last - best.first + 1;
  for (LayerId id = best.first; id <= best.last; ++id) {
    const Bytes weight = model.layer(id).weight_bytes;
    schedule.order.push_back(id);
    sent += weight;
    schedule.cumulative_bytes.push_back(sent);
    schedule.latency_reduction.push_back(
        best.bytes > 0 ? best.benefit * (static_cast<double>(weight) /
                                         static_cast<double>(best.bytes))
                       : best.benefit / static_cast<double>(run_layers));
    uploaded[static_cast<std::size_t>(id)] = true;
  }
}

/// Maximal runs of consecutive server-side layers of the target plan.
std::vector<Run> collect_runs(const PartitionPlan& target) {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < target.location.size(); ++i) {
    if (target.location[i] != ExecLocation::kServer) continue;
    const auto id = static_cast<LayerId>(i);
    if (!runs.empty() && runs.back().last == id - 1) {
      runs.back().last = id;
    } else {
      runs.push_back({id, id});
    }
  }
  return runs;
}

}  // namespace

UploadSchedule plan_upload_order_reference(const PartitionContext& context,
                                           const PartitionPlan& target,
                                           UploadPlannerConfig config) {
  PERDNN_CHECK(target.location.size() ==
               static_cast<std::size_t>(context.model->num_layers()));
  const DnnModel& model = *context.model;
  const auto n = static_cast<std::size_t>(model.num_layers());

  std::vector<Run> runs = collect_runs(target);
  UploadSchedule schedule;
  if (runs.empty()) return schedule;

  std::vector<bool> uploaded(n, false);
  Seconds current_latency = plan_latency(context, uploaded);
  Bytes sent = 0;

  auto score = [&](LayerId first, LayerId last) {
    Candidate c;
    c.first = first;
    c.last = last;
    c.bytes = run_bytes(model, first, last);
    std::vector<bool> tentative = uploaded;
    for (LayerId id = first; id <= last; ++id)
      tentative[static_cast<std::size_t>(id)] = true;
    c.benefit = current_latency - plan_latency(context, tentative);
    // Zero-byte runs (activation-only stretches) are free to send; score by
    // raw benefit against a one-byte floor.
    c.efficiency = c.benefit / static_cast<double>(std::max<Bytes>(c.bytes, 1));
    return c;
  };

  while (!runs.empty()) {
    Candidate best;
    for (const Run& run : runs) {
      if (config.enumeration == UploadEnumeration::kExact) {
        for (LayerId a = run.first; a <= run.last; ++a)
          for (LayerId b = a; b <= run.last; ++b) {
            const Candidate c = score(a, b);
            if (c.better_than(best)) best = c;
          }
      } else {
        // Anchored: prefixes and suffixes of the run.
        for (LayerId b = run.first; b <= run.last; ++b) {
          const Candidate c = score(run.first, b);
          if (c.better_than(best)) best = c;
        }
        for (LayerId a = run.first + 1; a <= run.last; ++a) {
          const Candidate c = score(a, run.last);
          if (c.better_than(best)) best = c;
        }
      }
    }
    PERDNN_CHECK(best.first != kNoLayer);

    // Commit the winning run to the schedule.
    commit_run(schedule, model, best, sent, uploaded);
    current_latency = plan_latency(context, uploaded);

    // Split/remove the runs the pick touched.
    std::vector<Run> next;
    next.reserve(runs.size() + 1);
    for (const Run& run : runs) {
      if (best.last < run.first || best.first > run.last) {
        next.push_back(run);
        continue;
      }
      if (run.first < best.first) next.push_back({run.first, best.first - 1});
      if (best.last < run.last) next.push_back({best.last + 1, run.last});
    }
    runs = std::move(next);
  }
  PERDNN_CHECK(schedule.order.size() ==
               static_cast<std::size_t>(target.num_server_layers()));
  return schedule;
}

namespace {

/// One candidate as scored by the O(1) incremental sweep of pass 1, in the
/// exact enumeration order of the reference implementation.
struct ApproxCandidate {
  LayerId first;
  LayerId last;
  Bytes bytes;
  Seconds approx_benefit;
};

}  // namespace

// Incremental scorer. Per greedy round it refreshes, in O(layers):
//   * the forward DP rows Fc/Fs under the committed mask (plan_forward_dp);
//   * backward rows Bc/Bs — cost-to-go from "layer i done at client/server"
//     to the finished result back at the client, under the committed mask.
// A candidate [a, b] only changes availability inside [a, b], so its latency
// is   min over exit state of  (forward-through-[a,b] from Fc[a-1]/Fs[a-1])
//                              + Bc[b]/Bs[b],
// which an in-candidate running DP evaluates in O(1) per extension of b
// (prefix sweeps) or via per-run suffix arrays (suffix candidates). The
// joined value equals the reference plan_latency in real arithmetic but not
// bit-for-bit (different association of the same sums), and efficiency ties
// are common — so pass 1 only *prunes*: every candidate whose approximate
// efficiency could still reach the approximate best (margin `m`, orders of
// magnitude above the achievable FP divergence) is re-scored in pass 2 with
// the reference's own plan_latency call, in the reference's enumeration
// order, under the reference's comparison. The committed schedule is
// therefore byte-identical to plan_upload_order_reference.
UploadSchedule plan_upload_order(const PartitionContext& context,
                                 const PartitionPlan& target,
                                 UploadPlannerConfig config) {
  PERDNN_CHECK(target.location.size() ==
               static_cast<std::size_t>(context.model->num_layers()));
  const DnnModel& model = *context.model;
  const auto n = static_cast<std::size_t>(model.num_layers());

  std::vector<Run> runs = collect_runs(target);
  UploadSchedule schedule;
  if (runs.empty()) return schedule;

  const std::vector<Bytes>& live = context.live_bytes();
  const auto& ct = context.client_profile->client_time;
  const auto& st = context.server_time;
  const auto up = [&](std::size_t cut) {
    return static_cast<double>(live[cut]) / context.net.uplink_bytes_per_sec +
           context.net.rtt;
  };
  const auto down = [&](std::size_t cut) {
    return static_cast<double>(live[cut]) /
               context.net.downlink_bytes_per_sec +
           context.net.rtt;
  };
  const Bytes result_bytes = model.layer(model.num_layers() - 1).output_bytes;
  const Seconds result_hop =
      static_cast<double>(result_bytes) / context.net.downlink_bytes_per_sec +
      context.net.rtt;

  std::vector<bool> uploaded(n, false);
  std::vector<Seconds> bc(n), bs(n);
  std::vector<Seconds> gc, gs;
  std::vector<Bytes> suffix_bytes;
  std::vector<ApproxCandidate> approx;
  Bytes sent = 0;

  while (!runs.empty()) {
    const ForwardDp fwd = plan_forward_dp(context, uploaded);
    const Seconds current_latency = fwd.latency;
    const auto& fc = fwd.at_client;
    const auto& fs = fwd.at_server;

    // Exact candidate score, bit-identical to the reference's
    //   current_latency - plan_latency(context, tentative mask)
    // but windowed: states before `first` are unchanged by the tentative
    // availability, so the reference recurrence (same arithmetic as run_dp,
    // same tie handling) is seeded from this round's forward rows and run
    // from `first` on. Once past `last` the mask matches `uploaded` again,
    // so the DP is Markov: the moment the states rejoin the forward rows the
    // tail — and hence the final latency — is bit-identical to the
    // no-candidate run, and the benefit is exactly 0.0. That early exit
    // keeps degenerate all-tied rounds (every remaining candidate
    // zero-benefit) cheap instead of reference-cost.
    const auto exact_score = [&](LayerId first, LayerId last) {
      Candidate c;
      c.first = first;
      c.last = last;
      c.bytes = run_bytes(model, first, last);
      const auto fi = static_cast<std::size_t>(first);
      const auto li = static_cast<std::size_t>(last);
      Seconds dc = fc[fi - 1];
      Seconds ds = fs[fi - 1];
      bool converged = false;
      for (std::size_t i = fi; i < n; ++i) {
        const bool server_ok = i <= li || uploaded[i];
        const Seconds stay_client = dc;
        const Seconds cross_down =
            ds == kInfSeconds ? kInfSeconds : ds + down(i - 1);
        const Seconds ndc =
            (cross_down < stay_client ? cross_down : stay_client) + ct[i];
        Seconds nds = kInfSeconds;
        if (server_ok) {
          const Seconds stay_server = ds;
          const Seconds cross_up = dc + up(i - 1);
          if (cross_up < stay_server) {
            nds = cross_up + st[i];
          } else if (stay_server != kInfSeconds) {
            nds = stay_server + st[i];
          }
        }
        dc = ndc;
        ds = nds;
        if (i > li && dc == fc[i] && ds == fs[i]) {
          converged = true;
          break;
        }
      }
      if (converged) {
        c.benefit = 0.0;
      } else {
        const Seconds from_server =
            ds == kInfSeconds
                ? kInfSeconds
                : ds + static_cast<double>(result_bytes) /
                           context.net.downlink_bytes_per_sec +
                      context.net.rtt;
        const Seconds lat = from_server < dc ? from_server : dc;
        c.benefit = current_latency - lat;
      }
      c.efficiency =
          c.benefit / static_cast<double>(std::max<Bytes>(c.bytes, 1));
      return c;
    };

    bc[n - 1] = 0.0;
    bs[n - 1] = result_hop;
    for (std::size_t i = n - 1; i-- > 0;) {
      const bool server_ok = uploaded[i + 1];
      const Seconds via_client = ct[i + 1] + bc[i + 1];
      bc[i] = server_ok
                  ? std::min(via_client, up(i) + st[i + 1] + bs[i + 1])
                  : via_client;
      const Seconds via_down = down(i) + ct[i + 1] + bc[i + 1];
      bs[i] = server_ok ? std::min(st[i + 1] + bs[i + 1], via_down) : via_down;
    }

    // Pass 1: approximate every candidate, in the reference enumeration
    // order. Runs never contain layer 0 (the input pseudo-layer is always
    // client-side), so the a-1 / i-1 indexing below stays in range.
    approx.clear();
    for (const Run& run : runs) {
      const auto first_i = static_cast<std::size_t>(run.first);
      const auto last_i = static_cast<std::size_t>(run.last);
      const auto sweep_from = [&](LayerId a) {
        const auto ai = static_cast<std::size_t>(a);
        Seconds dc = fc[ai - 1];
        Seconds ds = fs[ai - 1];
        Bytes bytes = 0;
        for (LayerId b = a; b <= run.last; ++b) {
          const auto bi = static_cast<std::size_t>(b);
          bytes += model.layer(b).weight_bytes;
          const Seconds from_server =
              ds == kInfSeconds ? kInfSeconds : ds + down(bi - 1);
          const Seconds ndc = std::min(dc, from_server) + ct[bi];
          const Seconds nds = std::min(ds, dc + up(bi - 1)) + st[bi];
          dc = ndc;
          ds = nds;
          const Seconds lat = std::min(dc + bc[bi], ds + bs[bi]);
          approx.push_back({a, b, bytes, current_latency - lat});
        }
      };
      if (config.enumeration == UploadEnumeration::kExact) {
        for (LayerId a = run.first; a <= run.last; ++a) sweep_from(a);
      } else {
        sweep_from(run.first);  // prefixes
        // Suffix candidates [a, run.last] share their tail, so one backward
        // sweep builds cost-to-go arrays over the run (gc/gs: entering layer
        // first_i + k with data at client/server, all of [k, len) available)
        // and each anchor joins against them in O(1).
        const std::size_t len = last_i - first_i + 1;
        gc.assign(len + 1, 0.0);
        gs.assign(len + 1, 0.0);
        gc[len] = bc[last_i];
        gs[len] = bs[last_i];
        suffix_bytes.assign(len + 1, 0);
        for (std::size_t k = len; k-- > 0;) {
          const std::size_t i = first_i + k;
          gc[k] = std::min(ct[i] + gc[k + 1], up(i - 1) + st[i] + gs[k + 1]);
          gs[k] = std::min(st[i] + gs[k + 1], down(i - 1) + ct[i] + gc[k + 1]);
          suffix_bytes[k] =
              suffix_bytes[k + 1] + model.layer(static_cast<LayerId>(i)).weight_bytes;
        }
        for (LayerId a = run.first + 1; a <= run.last; ++a) {
          const auto ai = static_cast<std::size_t>(a);
          const std::size_t k = ai - first_i;
          const Seconds from_server =
              fs[ai - 1] == kInfSeconds ? kInfSeconds : fs[ai - 1] + gs[k];
          const Seconds lat = std::min(fc[ai - 1] + gc[k], from_server);
          approx.push_back(
              {a, run.last, suffix_bytes[k], current_latency - lat});
        }
      }
    }

    // The incremental join differs from the reference forward DP only by
    // floating-point association of the same terms, so the true benefit of a
    // candidate lies within `m` of its approximation — with `m` set orders
    // of magnitude above any achievable rounding divergence (~layers * eps *
    // latency) while staying far below real efficiency gaps.
    const double m = 1e-9 * (1.0 + std::abs(current_latency));
    double best_lo = -kInfSeconds;
    for (const ApproxCandidate& c : approx) {
      const double denom = static_cast<double>(std::max<Bytes>(c.bytes, 1));
      best_lo = std::max(best_lo, (c.approx_benefit - m) / denom);
    }

    // Pass 2: exact re-score of contenders only, reference order + compare.
    Candidate best;
    std::size_t rescored = 0;
    for (const ApproxCandidate& c : approx) {
      const double denom = static_cast<double>(std::max<Bytes>(c.bytes, 1));
      if ((c.approx_benefit + m) / denom < best_lo) continue;
      ++rescored;
      const Candidate exact = exact_score(c.first, c.last);
      if (exact.better_than(best)) best = exact;
    }
    obs::count("upload_order.candidates", static_cast<double>(approx.size()));
    obs::count("upload_order.rescored", static_cast<double>(rescored));
    PERDNN_CHECK(best.first != kNoLayer);

    commit_run(schedule, model, best, sent, uploaded);

    std::vector<Run> next;
    next.reserve(runs.size() + 1);
    for (const Run& run : runs) {
      if (best.last < run.first || best.first > run.last) {
        next.push_back(run);
        continue;
      }
      if (run.first < best.first) next.push_back({run.first, best.first - 1});
      if (best.last < run.last) next.push_back({best.last + 1, run.last});
    }
    runs = std::move(next);
  }
  PERDNN_CHECK(schedule.order.size() ==
               static_cast<std::size_t>(target.num_server_layers()));
  return schedule;
}

}  // namespace perdnn

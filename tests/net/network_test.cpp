#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace perdnn {
namespace {

TEST(LabWifi, MatchesPaperNumbers) {
  const NetworkCondition net = lab_wifi();
  EXPECT_DOUBLE_EQ(net.uplink_bytes_per_sec, mbps_to_bytes_per_sec(35.0));
  EXPECT_DOUBLE_EQ(net.downlink_bytes_per_sec, mbps_to_bytes_per_sec(50.0));
}

TEST(UnitHelpers, RoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_sec(8.0), 1e6);
  EXPECT_DOUBLE_EQ(bytes_to_mbps(1e6, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(bytes_to_mbps(1e6, 0.0), 0.0);
  EXPECT_EQ(mb_to_bytes(1.0), 1024 * 1024);
  EXPECT_DOUBLE_EQ(bytes_to_mb(mb_to_bytes(128.0)), 128.0);
}

TEST(Traffic, AttributesUplinkAndDownlink) {
  TrafficAccountant traffic(3, 20.0);
  traffic.record_transfer(0, 1, 1000);
  traffic.record_transfer(0, 2, 500);
  traffic.record_transfer(2, 1, 200);
  // The open interval's bytes, attributed at the sender and the receiver.
  EXPECT_EQ(traffic.uplink_bytes(0), 1500);
  EXPECT_EQ(traffic.uplink_bytes(2), 200);
  EXPECT_EQ(traffic.downlink_bytes(1), 1200);
  EXPECT_EQ(traffic.downlink_bytes(2), 500);
  traffic.end_interval();
  // Closing the interval empties it and folds it into the peaks.
  EXPECT_EQ(traffic.uplink_bytes(0), 0);
  EXPECT_EQ(traffic.downlink_bytes(1), 0);
  EXPECT_GT(traffic.peak_uplink_mbps(0), traffic.peak_uplink_mbps(2));
  EXPECT_DOUBLE_EQ(traffic.peak_uplink_mbps(1), 0.0);
  EXPECT_DOUBLE_EQ(traffic.peak_downlink_mbps(1),
                   bytes_to_mbps(1200.0, 20.0));
}

TEST(Traffic, PeakIsMaxAcrossIntervals) {
  TrafficAccountant traffic(2, 10.0);
  traffic.record_transfer(0, 1, 100);
  traffic.end_interval();
  traffic.record_transfer(0, 1, 900);
  traffic.end_interval();
  traffic.record_transfer(0, 1, 300);
  traffic.end_interval();
  EXPECT_DOUBLE_EQ(traffic.peak_uplink_mbps(0),
                   bytes_to_mbps(900.0, 10.0));
  EXPECT_DOUBLE_EQ(traffic.peak_downlink_mbps(1),
                   bytes_to_mbps(900.0, 10.0));
}

TEST(Traffic, SelfAndZeroTransfersIgnored) {
  TrafficAccountant traffic(2, 10.0);
  traffic.record_transfer(0, 0, 1000);
  traffic.record_transfer(0, 1, 0);
  EXPECT_EQ(traffic.uplink_bytes(0), 0);
  EXPECT_EQ(traffic.downlink_bytes(0), 0);
  EXPECT_EQ(traffic.downlink_bytes(1), 0);
  traffic.end_interval();
  EXPECT_DOUBLE_EQ(traffic.global_peak_uplink_mbps(), 0.0);
  EXPECT_EQ(traffic.state().busiest_total, 0);
}

TEST(Traffic, RecordRejectsOutOfRangeServerOrNegativeBytes) {
  TrafficAccountant traffic(2, 10.0);
  EXPECT_THROW(traffic.record_transfer(0, 5, 10), std::logic_error);
  EXPECT_THROW(traffic.record_transfer(-1, 1, 10), std::logic_error);
  EXPECT_THROW(traffic.record_transfer(0, 1, -1), std::logic_error);
  EXPECT_THROW(traffic.uplink_bytes(2), std::logic_error);
}

TEST(Traffic, FractionWithinThreshold) {
  TrafficAccountant traffic(4, 1.0);
  // Server 0 sends 200 Mbps worth (25 MB over 1 s); others idle.
  traffic.record_transfer(0, 1, static_cast<Bytes>(200e6 / 8));
  traffic.end_interval();
  // Server 0 exceeds 100 Mbps uplink; server 1's downlink also exceeds it.
  EXPECT_DOUBLE_EQ(traffic.fraction_servers_within(100.0), 0.5);
  EXPECT_DOUBLE_EQ(traffic.fraction_servers_within(1e9), 1.0);
}

TEST(Traffic, BusiestIntervalAndPeakSnapshot) {
  TrafficAccountant traffic(3, 1.0);
  traffic.record_transfer(0, 1, 1000);  // interval 0: light
  traffic.end_interval();
  traffic.record_transfer(0, 1, static_cast<Bytes>(200e6 / 8));
  traffic.record_transfer(2, 1, 500);  // interval 1: heavy
  traffic.end_interval();
  traffic.record_transfer(2, 0, 2000);  // interval 2: light again
  traffic.end_interval();
  const TrafficAccountant::State& summary = traffic.state();
  EXPECT_EQ(summary.busiest_total, static_cast<Bytes>(200e6 / 8) + 500);
  EXPECT_EQ(summary.busiest_uplink[2], 500);
  // At the busiest interval, server 0 (uplink) and 1 (downlink) exceed
  // 100 Mbps; server 2 stays under.
  EXPECT_NEAR(traffic.fraction_servers_within_at_peak(100.0), 1.0 / 3.0,
              1e-12);
  EXPECT_DOUBLE_EQ(traffic.fraction_servers_within_at_peak(1e9), 1.0);
}

TEST(Traffic, EmptyAccountantPeakSnapshotIsVacuouslyFull) {
  TrafficAccountant traffic(2, 1.0);
  EXPECT_EQ(traffic.state().busiest_total, -1);
  EXPECT_DOUBLE_EQ(traffic.fraction_servers_within_at_peak(1.0), 1.0);
  // Bytes of an interval that never closed are not part of any reading.
  traffic.record_transfer(0, 1, static_cast<Bytes>(1e9));
  EXPECT_DOUBLE_EQ(traffic.fraction_servers_within_at_peak(1.0), 1.0);
  EXPECT_DOUBLE_EQ(traffic.global_peak_uplink_mbps(), 0.0);
}

TEST(Traffic, LastIntervalBytesAreInThePeaks) {
  // The peaks fold in at end_interval(): the final (here the busiest)
  // interval must be in them once it closes.
  TrafficAccountant traffic(2, 10.0);
  traffic.record_transfer(0, 1, 100);
  traffic.end_interval();
  traffic.record_transfer(0, 1, 9000);  // busiest interval is the last one
  traffic.end_interval();
  EXPECT_DOUBLE_EQ(traffic.peak_uplink_mbps(0), bytes_to_mbps(9000.0, 10.0));
  EXPECT_DOUBLE_EQ(traffic.peak_downlink_mbps(1),
                   bytes_to_mbps(9000.0, 10.0));
  EXPECT_DOUBLE_EQ(traffic.global_peak_uplink_mbps(),
                   bytes_to_mbps(9000.0, 10.0));
}

TEST(Traffic, RunningPeaksMatchFullHistoryScan) {
  // Brute-force oracle: the test keeps the whole [interval][server] history
  // the accountant no longer stores, and every reading must equal a scan of
  // it. The seeded history has an all-zero interval (9) and two intervals
  // with the same uplink total but different per-server bytes (17 and 31,
  // the busiest): the earlier one must win the tie.
  constexpr int kServers = 7;
  constexpr int kIntervals = 40;
  constexpr Seconds kLength = 5.0;
  struct Transfer {
    ServerId from, to;
    Bytes bytes;
  };
  Rng rng(2024);
  std::vector<std::vector<Transfer>> plan(kIntervals);
  for (int k = 0; k < kIntervals; ++k) {
    if (k == 9) continue;
    const auto n = rng.uniform_int(1, 12);
    for (std::int64_t i = 0; i < n; ++i)
      plan[static_cast<std::size_t>(k)].push_back(
          {static_cast<ServerId>(rng.uniform_int(0, kServers - 1)),
           static_cast<ServerId>(rng.uniform_int(0, kServers - 1)),
           rng.uniform_int(0, 10'000'000)});
  }
  plan[31] = plan[17];
  plan[17].push_back({3, 4, 300'000'000});
  plan[31].push_back({5, 6, 300'000'000});

  std::vector<std::vector<Bytes>> up(kIntervals,
                                     std::vector<Bytes>(kServers, 0));
  std::vector<std::vector<Bytes>> down = up;
  TrafficAccountant traffic(kServers, kLength);
  for (std::size_t k = 0; k < plan.size(); ++k) {
    for (const Transfer& t : plan[k]) {
      traffic.record_transfer(t.from, t.to, t.bytes);
      if (t.from == t.to) continue;
      up[k][static_cast<std::size_t>(t.from)] += t.bytes;
      down[k][static_cast<std::size_t>(t.to)] += t.bytes;
    }
    for (ServerId s = 0; s < kServers; ++s) {
      ASSERT_EQ(traffic.uplink_bytes(s), up[k][static_cast<std::size_t>(s)]);
      ASSERT_EQ(traffic.downlink_bytes(s),
                down[k][static_cast<std::size_t>(s)]);
    }
    traffic.end_interval();
  }

  const auto total = [&](std::size_t k) {
    Bytes sum = 0;
    for (Bytes b : up[k]) sum += b;
    return sum;
  };
  std::size_t busiest = 0;
  for (std::size_t k = 1; k < up.size(); ++k)
    if (total(k) > total(busiest)) busiest = k;
  ASSERT_EQ(busiest, 17u);
  ASSERT_EQ(total(31), total(17));
  ASSERT_NE(up[31], up[17]);
  ASSERT_EQ(total(9), 0);

  const auto mbps = [&](Bytes b) {
    return bytes_to_mbps(static_cast<double>(b), kLength);
  };
  std::vector<double> peak_up(kServers, 0.0), peak_down(kServers, 0.0);
  for (std::size_t k = 0; k < up.size(); ++k)
    for (std::size_t s = 0; s < peak_up.size(); ++s) {
      peak_up[s] = std::max(peak_up[s], mbps(up[k][s]));
      peak_down[s] = std::max(peak_down[s], mbps(down[k][s]));
    }
  for (ServerId s = 0; s < kServers; ++s) {
    EXPECT_EQ(traffic.peak_uplink_mbps(s),
              peak_up[static_cast<std::size_t>(s)]);
    EXPECT_EQ(traffic.peak_downlink_mbps(s),
              peak_down[static_cast<std::size_t>(s)]);
  }
  EXPECT_EQ(traffic.global_peak_uplink_mbps(),
            *std::max_element(peak_up.begin(), peak_up.end()));
  EXPECT_EQ(traffic.global_peak_downlink_mbps(),
            *std::max_element(peak_down.begin(), peak_down.end()));
  EXPECT_EQ(traffic.state().busiest_total, total(busiest));
  EXPECT_EQ(traffic.state().busiest_uplink, up[busiest]);
  EXPECT_EQ(traffic.state().busiest_downlink, down[busiest]);
  for (const double limit : {0.0, 1.0, 4.0, 10.0, 16.0, 100.0, 1e9}) {
    int within = 0, within_at_peak = 0;
    for (std::size_t s = 0; s < peak_up.size(); ++s) {
      if (peak_up[s] <= limit && peak_down[s] <= limit) ++within;
      if (mbps(up[busiest][s]) <= limit && mbps(down[busiest][s]) <= limit)
        ++within_at_peak;
    }
    EXPECT_EQ(traffic.fraction_servers_within(limit),
              static_cast<double>(within) / kServers)
        << "limit " << limit;
    EXPECT_EQ(traffic.fraction_servers_within_at_peak(limit),
              static_cast<double>(within_at_peak) / kServers)
        << "limit " << limit;
  }
}

TEST(Traffic, StateRoundTripPreservesPeaksAndTotals) {
  TrafficAccountant traffic(2, 10.0);
  traffic.record_transfer(0, 1, 4000);
  traffic.end_interval();
  traffic.record_transfer(1, 0, 2500);
  traffic.end_interval();

  TrafficAccountant resumed(2, 10.0);
  // Restoring empties the open interval: these bytes are discarded.
  resumed.record_transfer(0, 1, 77);
  resumed.restore(traffic.state());
  EXPECT_EQ(resumed.state(), traffic.state());
  EXPECT_EQ(resumed.uplink_bytes(0), 0);
  // Both continue identically.
  for (TrafficAccountant* t : {&traffic, &resumed}) {
    t->record_transfer(0, 1, 9000);
    t->end_interval();
  }
  EXPECT_EQ(resumed.state(), traffic.state());
  for (ServerId sid = 0; sid < 2; ++sid) {
    EXPECT_DOUBLE_EQ(resumed.peak_uplink_mbps(sid),
                     traffic.peak_uplink_mbps(sid));
    EXPECT_DOUBLE_EQ(resumed.peak_downlink_mbps(sid),
                     traffic.peak_downlink_mbps(sid));
  }
  EXPECT_EQ(resumed.state().busiest_total, 9000);
}

TEST(Traffic, RestoreRejectsMismatchedServerCount) {
  TrafficAccountant traffic(2, 10.0);
  traffic.record_transfer(0, 1, 10);
  traffic.end_interval();
  TrafficAccountant other(3, 10.0);
  EXPECT_THROW(other.restore(traffic.state()), std::logic_error);
}

}  // namespace
}  // namespace perdnn

#include "net/network.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace perdnn {

NetworkCondition lab_wifi() {
  NetworkCondition net;
  net.uplink_bytes_per_sec = mbps_to_bytes_per_sec(35.0);
  net.downlink_bytes_per_sec = mbps_to_bytes_per_sec(50.0);
  net.rtt = 5e-3;
  return net;
}

TrafficAccountant::State::State(std::size_t num_servers)
    : peak_uplink(num_servers, 0),
      peak_downlink(num_servers, 0),
      busiest_uplink(num_servers, 0),
      busiest_downlink(num_servers, 0) {}

void TrafficAccountant::State::fold(const std::vector<Bytes>& uplink,
                                    const std::vector<Bytes>& downlink) {
  PERDNN_CHECK(uplink.size() == peak_uplink.size() &&
               downlink.size() == peak_downlink.size());
  Bytes total = 0;
  for (std::size_t s = 0; s < uplink.size(); ++s) {
    peak_uplink[s] = std::max(peak_uplink[s], uplink[s]);
    peak_downlink[s] = std::max(peak_downlink[s], downlink[s]);
    total += uplink[s];
  }
  if (total > busiest_total) {
    busiest_total = total;
    busiest_uplink = uplink;
    busiest_downlink = downlink;
  }
}

bool TrafficAccountant::State::has_width(std::size_t num_servers) const {
  return peak_uplink.size() == num_servers &&
         peak_downlink.size() == num_servers &&
         busiest_uplink.size() == num_servers &&
         busiest_downlink.size() == num_servers;
}

TrafficAccountant::TrafficAccountant(int num_servers, Seconds interval_length)
    : num_servers_(num_servers),
      interval_length_(interval_length),
      uplink_(static_cast<std::size_t>(num_servers), 0),
      downlink_(uplink_.size(), 0),
      summary_(uplink_.size()) {
  PERDNN_CHECK(num_servers >= 1);
  PERDNN_CHECK(interval_length > 0);
}

void TrafficAccountant::record_transfer(ServerId from, ServerId to,
                                        Bytes bytes) {
  PERDNN_CHECK(from >= 0 && from < num_servers_);
  PERDNN_CHECK(to >= 0 && to < num_servers_);
  PERDNN_CHECK(bytes >= 0);
  if (from == to || bytes == 0) return;
  uplink_[static_cast<std::size_t>(from)] += bytes;
  downlink_[static_cast<std::size_t>(to)] += bytes;
}

Bytes TrafficAccountant::uplink_bytes(ServerId server) const {
  PERDNN_CHECK(server >= 0 && server < num_servers_);
  return uplink_[static_cast<std::size_t>(server)];
}

Bytes TrafficAccountant::downlink_bytes(ServerId server) const {
  PERDNN_CHECK(server >= 0 && server < num_servers_);
  return downlink_[static_cast<std::size_t>(server)];
}

void TrafficAccountant::end_interval() {
  summary_.fold(uplink_, downlink_);
  std::fill(uplink_.begin(), uplink_.end(), 0);
  std::fill(downlink_.begin(), downlink_.end(), 0);
}

double TrafficAccountant::to_mbps(Bytes bytes) const {
  return bytes_to_mbps(static_cast<double>(bytes), interval_length_);
}

double TrafficAccountant::peak_uplink_mbps(ServerId server) const {
  PERDNN_CHECK(server >= 0 && server < num_servers_);
  return to_mbps(summary_.peak_uplink[static_cast<std::size_t>(server)]);
}

double TrafficAccountant::peak_downlink_mbps(ServerId server) const {
  PERDNN_CHECK(server >= 0 && server < num_servers_);
  return to_mbps(summary_.peak_downlink[static_cast<std::size_t>(server)]);
}

double TrafficAccountant::global_peak_uplink_mbps() const {
  return to_mbps(*std::max_element(summary_.peak_uplink.begin(),
                                   summary_.peak_uplink.end()));
}

double TrafficAccountant::global_peak_downlink_mbps() const {
  return to_mbps(*std::max_element(summary_.peak_downlink.begin(),
                                   summary_.peak_downlink.end()));
}

double TrafficAccountant::fraction_within(const std::vector<Bytes>& uplink,
                                          const std::vector<Bytes>& downlink,
                                          double limit) const {
  int within = 0;
  for (std::size_t s = 0; s < uplink.size(); ++s)
    if (to_mbps(uplink[s]) <= limit && to_mbps(downlink[s]) <= limit) ++within;
  return static_cast<double>(within) / static_cast<double>(uplink.size());
}

double TrafficAccountant::fraction_servers_within(double mbps) const {
  return fraction_within(summary_.peak_uplink, summary_.peak_downlink, mbps);
}

double TrafficAccountant::fraction_servers_within_at_peak(double mbps) const {
  if (summary_.busiest_total < 0) return 1.0;
  return fraction_within(summary_.busiest_uplink, summary_.busiest_downlink,
                         mbps);
}

void TrafficAccountant::restore(const State& state) {
  PERDNN_CHECK(state.has_width(static_cast<std::size_t>(num_servers_)));
  summary_ = state;
  std::fill(uplink_.begin(), uplink_.end(), 0);
  std::fill(downlink_.begin(), downlink_.end(), 0);
}

}  // namespace perdnn

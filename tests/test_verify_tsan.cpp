// Thread-safety stress for the parallel verification engine.
//
// Built twice: once as a regular test, and once as `test_verify_tsan_tsan`
// with -fsanitize=thread (see tests/CMakeLists.txt), which is part of the
// tier-1 ctest run. Deliberately uses only hand-built snapshots — no
// emulation — so the TSan variant recompiles just the engine layers
// (util, net, aft, verify).
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "util/thread_pool.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::verify {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

std::string cidr(int value, const std::string& suffix) {
  return std::to_string(value) + suffix;
}

/// Synthetic ring-with-chords fabric, built directly as AFT state: node i
/// owns loopback 10.1.<i>.1/32 and a /31 toward each neighbor; every node
/// has a route to every loopback via its clockwise neighbor, plus an ECMP
/// chord every fourth node, a null-routed prefix, and a dangling next hop
/// — enough branch variety to stress every disposition concurrently.
gnmi::Snapshot fabric_snapshot(int nodes) {
  gnmi::Snapshot snapshot;
  auto name = [](int i) { return "r" + std::to_string(i); };
  // /31 between i and i+1: 10.2.<i>.0/31, i side .0, next side .1.
  for (int i = 0; i < nodes; ++i) {
    aft::DeviceAft device;
    device.node = name(i);
    int prev = (i + nodes - 1) % nodes;
    device.interfaces["Loopback0"] = {
        "Loopback0", net::InterfaceAddress::parse(cidr(i, ".1/32").insert(0, "10.1.")),
        true};
    device.interfaces["eth-next"] = {
        "eth-next", net::InterfaceAddress::parse("10.2." + std::to_string(i) + ".0/31"),
        true};
    device.interfaces["eth-prev"] = {
        "eth-prev",
        net::InterfaceAddress::parse("10.2." + std::to_string(prev) + ".1/31"), true};

    aft::NextHop clockwise;
    clockwise.ip_address = addr("10.2." + std::to_string(i) + ".1");
    clockwise.interface = "eth-next";
    uint64_t clockwise_index = device.aft.add_next_hop(clockwise);

    for (int d = 0; d < nodes; ++d) {
      if (d == i) continue;
      uint64_t group;
      if (i % 4 == 0 && d % 4 == 2) {
        // ECMP chord: clockwise plus counter-clockwise.
        aft::NextHop counter;
        counter.ip_address = addr("10.2." + std::to_string(prev) + ".0");
        counter.interface = "eth-prev";
        group = device.aft.add_group(
            {{clockwise_index, 1}, {device.aft.add_next_hop(counter), 1}});
      } else {
        group = device.aft.add_group(clockwise_index);
      }
      device.aft.set_ipv4_entry(
          {pfx("10.1." + std::to_string(d) + ".1/32"), group, "ISIS", 10});
    }

    aft::NextHop drop;
    drop.drop = true;
    device.aft.set_ipv4_entry({pfx("192.0.2.0/24"),
                               device.aft.add_group(device.aft.add_next_hop(drop)),
                               "STATIC", 0});
    aft::NextHop dangling;
    dangling.ip_address = addr("172.31.0.1");
    dangling.interface = "eth-next";
    device.aft.set_ipv4_entry({pfx("198.51.100.0/24"),
                               device.aft.add_group(device.aft.add_next_hop(dangling)),
                               "BGP", 0});
    snapshot.devices[device.node] = std::move(device);
  }
  return snapshot;
}

std::string render(const ReachabilityResult& result) {
  std::ostringstream out;
  out << result.classes << "/" << result.flows << "\n";
  for (const ReachabilityRow& row : result.rows)
    out << row.source << " " << row.destination.to_string() << " "
        << row.dispositions.to_string() << "\n";
  return out.str();
}

std::string render(const PairwiseResult& result) {
  std::ostringstream out;
  out << result.reachable_pairs << "/" << result.total_pairs << "\n";
  for (const PairwiseCell& cell : result.cells)
    out << cell.source << " " << cell.destination << " " << cell.reachable << "\n";
  return out.str();
}

std::string render(const DifferentialResult& result) {
  std::ostringstream out;
  out << result.classes << "/" << result.flows << "\n";
  for (const DifferentialRow& row : result.rows) out << row.to_string() << "\n";
  return out.str();
}

TEST(VerifyTsan, ParallelReachabilityMatchesSerial) {
  ForwardingGraph graph(fabric_snapshot(24));
  QueryOptions serial;
  serial.threads = 1;
  serial.engine = EngineMode::kLegacy;
  std::string expected = render(reachability(graph, serial));
  EXPECT_NE(expected.find("ACCEPTED"), std::string::npos);
  EXPECT_NE(expected.find("NULL_ROUTED"), std::string::npos);
  EXPECT_NE(expected.find("NEIGHBOR_UNREACHABLE"), std::string::npos);
  for (int round = 0; round < 3; ++round) {
    QueryOptions options;
    options.threads = 8;
    EXPECT_EQ(render(reachability(graph, options)), expected) << round;
  }
}

TEST(VerifyTsan, SharedTraceCacheAcrossConcurrentQueries) {
  ForwardingGraph base(fabric_snapshot(16));
  ForwardingGraph candidate(fabric_snapshot(20));
  QueryOptions serial;
  serial.threads = 1;
  serial.engine = EngineMode::kLegacy;
  DifferentialResult expected = differential_reachability(base, candidate, serial);
  QueryOptions options;
  options.threads = 8;
  DifferentialResult parallel = differential_reachability(base, candidate, options);
  ASSERT_EQ(parallel.rows.size(), expected.rows.size());
  for (size_t i = 0; i < parallel.rows.size(); ++i)
    EXPECT_EQ(parallel.rows[i].to_string(), expected.rows[i].to_string()) << i;
}

TEST(VerifyTsan, ConcurrentWarmOfTheSameClassComputesOnce) {
  ForwardingGraph graph(fabric_snapshot(12));
  TraceCache cache(graph);
  // All workers warm the same destinations: the per-class lock must
  // serialize the table build while concurrent distinct destinations
  // proceed.
  util::parallel_for_shards(8, 64, [&](size_t shard) {
    net::Ipv4Address destination =
        addr("10.1." + std::to_string(shard % 12) + ".1");
    cache.warm(destination);
    DispositionSet set = cache.dispositions("r0", destination);
    if (shard % 12 != 0) EXPECT_TRUE(set.contains(Disposition::kAccepted));
  });
  EXPECT_EQ(cache.classes_cached(), 12u);
}

TEST(VerifyTsan, PairwiseParallelMatchesSerial) {
  ForwardingGraph graph(fabric_snapshot(18));
  QueryOptions serial;
  serial.threads = 1;
  serial.engine = EngineMode::kLegacy;
  PairwiseResult expected = pairwise_reachability(graph, serial);
  EXPECT_TRUE(expected.full_mesh());
  QueryOptions options;
  options.threads = 8;
  PairwiseResult parallel = pairwise_reachability(graph, options);
  EXPECT_EQ(parallel.reachable_pairs, expected.reachable_pairs);
  EXPECT_EQ(parallel.total_pairs, expected.total_pairs);
  ASSERT_EQ(parallel.cells.size(), expected.cells.size());
  for (size_t i = 0; i < parallel.cells.size(); ++i) {
    EXPECT_EQ(parallel.cells[i].source, expected.cells[i].source);
    EXPECT_EQ(parallel.cells[i].destination, expected.cells[i].destination);
    EXPECT_EQ(parallel.cells[i].reachable, expected.cells[i].reachable);
  }
}

// Pairwise and differential queries at the same time, all on one shared
// base graph and one shared base TraceCache (plus one shared candidate
// cache). The graph is immutable and class tables are published once, so
// this is race-free and every answer matches the serial legacy engine.
TEST(VerifyTsan, ConcurrentPairwiseAndDifferentialShareGraphAndCache) {
  ForwardingGraph base(fabric_snapshot(16));
  ForwardingGraph candidate(fabric_snapshot(20));
  QueryOptions serial;
  serial.threads = 1;
  serial.engine = EngineMode::kLegacy;
  const std::string expected_pairwise = render(pairwise_reachability(base, serial));
  const std::string expected_differential =
      render(differential_reachability(base, candidate, serial));
  EXPECT_NE(expected_differential.find("->"), std::string::npos);

  TraceCache base_cache(base);
  TraceCache candidate_cache(candidate);
  constexpr int kWorkers = 8;
  std::vector<std::string> answers(kWorkers);
  std::vector<std::thread> workers;
  for (int worker = 0; worker < kWorkers; ++worker) {
    workers.emplace_back([&, worker] {
      QueryOptions options;
      options.threads = 2;
      options.engine = EngineMode::kCached;
      options.cache = &base_cache;
      if (worker % 2 == 0) {
        answers[worker] = render(pairwise_reachability(base, options));
      } else {
        options.candidate_cache = &candidate_cache;
        answers[worker] = render(differential_reachability(base, candidate, options));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int worker = 0; worker < kWorkers; ++worker)
    EXPECT_EQ(answers[worker],
              worker % 2 == 0 ? expected_pairwise : expected_differential)
        << worker;
  EXPECT_GT(base_cache.hits(), 0u);
}

}  // namespace
}  // namespace mfv::verify

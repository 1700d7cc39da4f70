#include <gtest/gtest.h>

#include <map>
#include <set>

#include "rib/rib.hpp"
#include "util/rng.hpp"

namespace mfv::rib {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

RibRoute make_route(const std::string& prefix, Protocol protocol, uint32_t metric = 0,
                    const std::string& next_hop = "", const std::string& interface = "",
                    const std::string& source = "") {
  RibRoute route;
  route.prefix = pfx(prefix);
  route.protocol = protocol;
  route.admin_distance = default_admin_distance(protocol);
  route.metric = metric;
  if (!next_hop.empty()) route.next_hop = addr(next_hop);
  if (!interface.empty()) route.interface = interface;
  route.source = source;
  return route;
}

TEST(Rib, AdminDistanceOrdering) {
  // Connected < static < TE < eBGP < IS-IS < iBGP, EOS-style.
  EXPECT_LT(default_admin_distance(Protocol::kConnected),
            default_admin_distance(Protocol::kStatic));
  EXPECT_LT(default_admin_distance(Protocol::kStatic), default_admin_distance(Protocol::kTe));
  EXPECT_LT(default_admin_distance(Protocol::kTe), default_admin_distance(Protocol::kBgp));
  EXPECT_LT(default_admin_distance(Protocol::kBgp), default_admin_distance(Protocol::kIsis));
  EXPECT_LT(default_admin_distance(Protocol::kIsis), default_admin_distance(Protocol::kIbgp));
}

TEST(Rib, BestPrefersLowerAdminDistance) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kStatic, 0, "2.2.2.2"));
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].protocol, Protocol::kStatic);
  // Both candidates still visible.
  EXPECT_EQ(rib.candidates(pfx("10.0.0.0/8")).size(), 2u);
}

TEST(Rib, BestPrefersLowerMetricWithinProtocol) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 30, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "2.2.2.2", "Ethernet2"));
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].metric, 20u);
}

TEST(Rib, EqualCostRoutesFormEcmpSet) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "2.2.2.2", "Ethernet2"));
  EXPECT_EQ(rib.best(pfx("10.0.0.0/8")).size(), 2u);
}

TEST(Rib, AddReportsBestChange) {
  Rib rib;
  EXPECT_TRUE(rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1")));
  // Worse route: best unchanged.
  EXPECT_FALSE(rib.add(make_route("10.0.0.0/8", Protocol::kIbgp, 0, "9.9.9.9")));
  // Better route: best changes.
  EXPECT_TRUE(rib.add(make_route("10.0.0.0/8", Protocol::kStatic, 0, "2.2.2.2")));
}

TEST(Rib, ReplaceInSlotUpdatesMetric) {
  Rib rib;
  RibRoute route = make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1", "i");
  rib.add(route);
  route.metric = 40;
  EXPECT_TRUE(rib.add(route));  // replaced, best metric changed
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].metric, 40u);
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(Rib, RemoveAndClearProtocol) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1", "default"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 30, "1.1.1.1", "Ethernet1", "default"));
  rib.add(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2", "", "static"));
  EXPECT_EQ(rib.clear_protocol(Protocol::kIsis, "default"), 2u);
  EXPECT_EQ(rib.prefix_count(), 1u);
  EXPECT_TRUE(rib.remove(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2", "", "static")));
  EXPECT_EQ(rib.prefix_count(), 0u);
  EXPECT_FALSE(rib.remove(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2")));
}

TEST(Rib, ClearProtocolBySourceOnly) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1", "a"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1", "b"));
  EXPECT_EQ(rib.clear_protocol(Protocol::kIsis, "a"), 1u);
  EXPECT_EQ(rib.prefix_count(), 1u);
}

TEST(Rib, LongestMatchUsesMostSpecificPrefix) {
  Rib rib;
  rib.add(make_route("0.0.0.0/0", Protocol::kStatic, 0, "", "", "static"));
  rib.candidates(pfx("0.0.0.0/0"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 10, "2.2.2.2", "Ethernet2"));
  auto best = rib.longest_match(addr("10.1.5.5"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].prefix, pfx("10.1.0.0/16"));
  EXPECT_EQ(rib.longest_match(addr("172.16.0.1"))[0].prefix, pfx("0.0.0.0/0"));
}

TEST(Rib, LongestMatchAfterErasureFallsBack) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  RibRoute specific = make_route("10.1.0.0/16", Protocol::kIsis, 10, "2.2.2.2", "Ethernet2");
  rib.add(specific);
  EXPECT_EQ(rib.longest_match(addr("10.1.0.1"))[0].prefix, pfx("10.1.0.0/16"));
  rib.remove(specific);
  EXPECT_EQ(rib.longest_match(addr("10.1.0.1"))[0].prefix, pfx("10.0.0.0/8"));
}

TEST(Rib, ForEachBestVisitsEveryPrefixOnce) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIbgp, 0, "9.9.9.9"));
  rib.add(make_route("10.1.0.0/16", Protocol::kStatic, 0, "2.2.2.2"));
  int visits = 0;
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    ++visits;
    ASSERT_FALSE(best.empty());
    if (prefix == pfx("10.0.0.0/8")) EXPECT_EQ(best[0].protocol, Protocol::kIsis);
  });
  EXPECT_EQ(visits, 2);
}


// -- replace_protocol merge-join vs the per-prefix reference ----------------

using Table = std::map<net::Ipv4Prefix, std::vector<RibRoute>>;

/// The grouping install replace_protocol used before the merge-join, kept
/// as the reference: group `fresh` by prefix under add()'s same-slot rule,
/// leave a slot alone when it already holds exactly those routes (in any
/// order), otherwise drop the protocol's routes and append the new ones.
/// Returns the prefixes whose slot it rewrote.
std::set<net::Ipv4Prefix> reference_replace(Table& table, Protocol protocol,
                                            const std::string& source,
                                            const std::vector<RibRoute>& fresh) {
  auto matches = [&](const RibRoute& r) {
    return r.protocol == protocol && (source.empty() || r.source == source);
  };
  Table incoming;
  for (const RibRoute& route : fresh) {
    auto& slot = incoming[route.prefix];
    auto it = std::find_if(slot.begin(), slot.end(),
                           [&](const RibRoute& r) { return r.same_slot(route); });
    if (it != slot.end())
      *it = route;
    else
      slot.push_back(route);
  }
  std::set<net::Ipv4Prefix> changed;
  std::set<net::Ipv4Prefix> prefixes;
  for (const auto& [prefix, slot] : table) prefixes.insert(prefix);
  for (const auto& [prefix, want] : incoming) prefixes.insert(prefix);
  for (const net::Ipv4Prefix& prefix : prefixes) {
    std::vector<RibRoute>& slot = table[prefix];
    const std::vector<RibRoute>& want = incoming[prefix];
    std::vector<RibRoute> current;
    for (const RibRoute& r : slot)
      if (matches(r)) current.push_back(r);
    bool same = current.size() == want.size();
    std::vector<bool> used(current.size(), false);
    for (const RibRoute& w : want) {
      bool found = false;
      for (size_t i = 0; same && !found && i < current.size(); ++i)
        if (!used[i] && current[i] == w) used[i] = found = true;
      same = same && found;
    }
    if (!same) {
      changed.insert(prefix);
      slot.erase(std::remove_if(slot.begin(), slot.end(), matches), slot.end());
      slot.insert(slot.end(), want.begin(), want.end());
    }
    if (slot.empty()) table.erase(prefix);
  }
  return changed;
}

/// Small pools so slots collide: shared prefixes, same-slot replacements,
/// ECMP siblings and both recursive and interface routes.
RibRoute random_route(util::Pcg32& rng, Protocol protocol) {
  static const char* kPrefixes[] = {"10.0.0.0/8",  "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32",
                                    "10.9.0.0/16", "192.0.2.0/24", "198.51.100.0/24",
                                    "203.0.113.0/24"};
  static const char* kHops[] = {"10.1.2.3", "10.9.0.1", "192.0.2.1", "172.16.0.1"};
  RibRoute route = make_route(kPrefixes[rng.next_below(8)], protocol, rng.next_below(3),
                              kHops[rng.next_below(4)],
                              rng.next_below(2) ? "" : "Ethernet" + std::to_string(rng.next_below(3)),
                              rng.next_below(3) ? "a" : "b");
  if (rng.next_below(8) == 0) route.push_label = 100 + rng.next_below(2);
  return route;
}

void expect_matches(const Rib& rib, const Table& table) {
  size_t routes = 0;
  for (const auto& [prefix, slot] : table) {
    EXPECT_EQ(rib.candidates(prefix), slot) << prefix.to_string();
    routes += slot.size();
  }
  EXPECT_EQ(rib.prefix_count(), table.size());
  EXPECT_EQ(rib.route_count(), routes);
}

/// Order-insensitive view of a RIB, for the clear+add equivalence.
std::multiset<std::string> route_multiset(const Rib& rib) {
  std::multiset<std::string> out;
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>&) {
    for (const RibRoute& r : rib.candidates(prefix))
      out.insert(r.prefix.to_string() + " " + protocol_name(r.protocol) + " " +
                 std::to_string(r.admin_distance) + " " + std::to_string(r.metric) + " " +
                 (r.next_hop ? r.next_hop->to_string() : "-") + " " + r.interface.value_or("-") +
                 " " + std::to_string(r.push_label.value_or(0)) + " " + r.source);
  });
  return out;
}

TEST(RibReplaceProtocol, MergeJoinMatchesReferenceAndReportsChangedPrefixes) {
  const Protocol kProtocols[] = {Protocol::kStatic, Protocol::kIsis, Protocol::kBgp};
  for (uint64_t seed = 0; seed < 300; ++seed) {
    util::Pcg32 rng(seed);
    Rib rib;
    Table table;
    for (int step = 0; step < 30; ++step) {
      rib.mark_installed();
      const Protocol protocol = kProtocols[rng.next_below(3)];
      if (rng.next_below(4) == 0) {
        RibRoute route = random_route(rng, protocol);
        bool changed = rib.add(route);
        auto& slot = table[route.prefix];
        auto it = std::find_if(slot.begin(), slot.end(),
                               [&](const RibRoute& r) { return r.same_slot(route); });
        if (it != slot.end())
          *it = route;
        else
          slot.push_back(route);
        EXPECT_EQ(rib.dirty().size(), changed ? 1u : 0u);
      } else {
        std::vector<RibRoute> fresh;
        for (uint32_t i = rng.next_below(12); i > 0; --i) fresh.push_back(random_route(rng, protocol));
        const std::string source = rng.next_below(4) == 0 ? "" : (rng.next_below(2) ? "a" : "b");

        // Same contents as clear_protocol + add() in order, up to the
        // order inside slots the install left alone.
        Rib cleared = rib;
        cleared.clear_protocol(protocol, source);
        for (const RibRoute& route : fresh)
          if (source.empty() || route.source == source) cleared.add(route);

        std::set<net::Ipv4Prefix> expected = reference_replace(table, protocol, source, fresh);
        bool changed = rib.replace_protocol(protocol, source, fresh);
        EXPECT_EQ(changed, !expected.empty()) << "seed " << seed << " step " << step;
        EXPECT_FALSE(rib.fully_dirty());
        EXPECT_EQ(rib.dirty(), expected) << "seed " << seed << " step " << step;
        bool filtered = std::all_of(fresh.begin(), fresh.end(), [&](const RibRoute& r) {
          return source.empty() || r.source == source;
        });
        if (filtered) EXPECT_EQ(route_multiset(rib), route_multiset(cleared));
      }
      expect_matches(rib, table);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(RibDirty, NewAndAssignedRibsAreFullyDirtyAndCopiesCarryTheDirtySet) {
  Rib rib;
  EXPECT_TRUE(rib.fully_dirty());
  rib.add(make_route("10.0.0.0/8", Protocol::kStatic, 0, "", "Ethernet1"));
  rib.mark_installed();
  EXPECT_FALSE(rib.fully_dirty());
  EXPECT_TRUE(rib.dirty().empty());

  // A non-best route leaves the best set, and so the dirty set, alone.
  EXPECT_FALSE(rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 5, "10.9.0.1", "Ethernet2")));
  EXPECT_TRUE(rib.dirty().empty());
  EXPECT_TRUE(rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 5, "10.9.0.1", "Ethernet2")));
  EXPECT_EQ(rib.dirty(), std::set<net::Ipv4Prefix>{pfx("10.1.0.0/16")});

  Rib copy = rib;  // a fork shares the installed FIB, so it keeps the set
  EXPECT_FALSE(copy.fully_dirty());
  EXPECT_EQ(copy.dirty(), rib.dirty());

  Rib assigned;
  assigned.mark_installed();
  assigned = rib;  // the target's installed FIB matches nothing of this
  EXPECT_TRUE(assigned.fully_dirty());
  Rib reset = rib;
  reset = Rib();
  EXPECT_TRUE(reset.fully_dirty());

  rib.mark_installed();
  EXPECT_EQ(rib.clear_protocol(Protocol::kIsis), 2u);
  EXPECT_EQ(rib.dirty(), (std::set<net::Ipv4Prefix>{pfx("10.0.0.0/8"), pfx("10.1.0.0/16")}));
}

}  // namespace
}  // namespace mfv::rib

// Recursive next-hop resolution and FIB compilation (RIB -> AFT).
#include <gtest/gtest.h>

#include "rib/rib.hpp"
#include "util/rng.hpp"

namespace mfv::rib {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

/// Typical router RIB: connected link, IS-IS loopback route, recursive BGP.
Rib typical_rib() {
  Rib rib;
  RibRoute connected;
  connected.prefix = pfx("100.64.0.0/31");
  connected.protocol = Protocol::kConnected;
  connected.interface = "Ethernet1";
  rib.add(connected);

  RibRoute isis;
  isis.prefix = pfx("2.2.2.2/32");  // remote loopback
  isis.protocol = Protocol::kIsis;
  isis.admin_distance = 115;
  isis.metric = 20;
  isis.next_hop = addr("100.64.0.1");
  isis.interface = "Ethernet1";
  rib.add(isis);

  RibRoute bgp;  // BGP route with next hop = remote loopback (recursive)
  bgp.prefix = pfx("203.0.113.0/24");
  bgp.protocol = Protocol::kIbgp;
  bgp.admin_distance = 200;
  bgp.next_hop = addr("2.2.2.2");
  rib.add(bgp);
  return rib;
}

TEST(Resolve, DirectRouteResolvesToItself) {
  Rib rib = typical_rib();
  auto routes = rib.best(pfx("2.2.2.2/32"));
  ASSERT_EQ(routes.size(), 1u);
  auto resolved = resolve(rib, routes[0]);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, RecursiveBgpRouteResolvesThroughIgp) {
  Rib rib = typical_rib();
  auto routes = rib.best(pfx("203.0.113.0/24"));
  ASSERT_EQ(routes.size(), 1u);
  auto resolved = resolve(rib, routes[0]);
  ASSERT_EQ(resolved.size(), 1u);
  // Forwarding uses the IGP's adjacent next hop, not the BGP next hop.
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, NextHopOnConnectedSubnetIsAdjacent) {
  Rib rib = typical_rib();
  RibRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.protocol = Protocol::kStatic;
  route.next_hop = addr("100.64.0.1");  // directly on the connected /31
  auto resolved = resolve(rib, route);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, UnresolvableNextHopYieldsNothing) {
  Rib rib = typical_rib();
  RibRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.protocol = Protocol::kStatic;
  route.next_hop = addr("172.16.0.1");  // no covering route
  EXPECT_TRUE(resolve(rib, route).empty());
}

TEST(Resolve, DropRouteResolvesToDrop) {
  Rib rib;
  RibRoute route;
  route.prefix = pfx("0.0.0.0/0");
  route.protocol = Protocol::kStatic;
  route.drop = true;
  auto resolved = resolve(rib, route);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_TRUE(resolved[0].drop);
}

TEST(Resolve, TeLabelPropagatesThroughRecursion) {
  Rib rib = typical_rib();
  RibRoute te;
  te.prefix = pfx("2.2.2.2/32");
  te.protocol = Protocol::kTe;
  te.admin_distance = 2;
  te.next_hop = addr("100.64.0.1");
  te.push_label = 100042;
  auto resolved = resolve(rib, te);
  ASSERT_EQ(resolved.size(), 1u);
  ASSERT_TRUE(resolved[0].push_label.has_value());
  EXPECT_EQ(*resolved[0].push_label, 100042u);
}

TEST(Resolve, SelfReferentialRouteTerminates) {
  Rib rib;
  RibRoute loopy;
  loopy.prefix = pfx("10.0.0.0/8");
  loopy.protocol = Protocol::kStatic;
  loopy.next_hop = addr("10.0.0.1");  // resolves through itself
  rib.add(loopy);
  EXPECT_TRUE(resolve(rib, loopy).empty());
}

TEST(Resolve, TwoRouteResolutionCycleTerminates) {
  Rib rib;
  RibRoute a;
  a.prefix = pfx("10.0.0.0/8");
  a.protocol = Protocol::kStatic;
  a.next_hop = addr("20.0.0.1");
  rib.add(a);
  RibRoute b;
  b.prefix = pfx("20.0.0.0/8");
  b.protocol = Protocol::kStatic;
  b.next_hop = addr("10.0.0.1");
  rib.add(b);
  EXPECT_TRUE(resolve(rib, a).empty());
  EXPECT_TRUE(resolve(rib, b).empty());
}

TEST(CompileFib, ProducesEntriesWithSharedNextHops) {
  Rib rib = typical_rib();
  aft::Aft fib = compile_fib(rib);
  // Three prefixes: connected /31, loopback /32, BGP /24.
  EXPECT_EQ(fib.entry_count(), 3u);
  // The IS-IS route and the recursive BGP route share one next hop.
  EXPECT_EQ(fib.next_hops().size(), 2u);  // adjacent hop + connected-attached hop

  const aft::Ipv4Entry* bgp_entry = fib.ipv4_entry(pfx("203.0.113.0/24"));
  ASSERT_NE(bgp_entry, nullptr);
  EXPECT_EQ(bgp_entry->origin_protocol, "IBGP");
  auto hops = fib.forward(addr("203.0.113.7"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.1");
}

TEST(CompileFib, EcmpBecomesOneGroupWithTwoHops) {
  Rib rib;
  for (int i = 1; i <= 2; ++i) {
    RibRoute connected;
    connected.prefix = pfx("100.64." + std::to_string(i) + ".0/31");
    connected.protocol = Protocol::kConnected;
    connected.interface = "Ethernet" + std::to_string(i);
    connected.source = connected.interface.value();
    rib.add(connected);

    RibRoute isis;
    isis.prefix = pfx("2.2.2.2/32");
    isis.protocol = Protocol::kIsis;
    isis.admin_distance = 115;
    isis.metric = 20;
    isis.next_hop = addr("100.64." + std::to_string(i) + ".1");
    isis.interface = "Ethernet" + std::to_string(i);
    isis.source = "default";
    rib.add(isis);
  }
  aft::Aft fib = compile_fib(rib);
  auto hops = fib.forward(addr("2.2.2.2"));
  EXPECT_EQ(hops.size(), 2u);
}

TEST(CompileFib, UnresolvableRouteNotProgrammed) {
  Rib rib;
  RibRoute bgp;
  bgp.prefix = pfx("203.0.113.0/24");
  bgp.protocol = Protocol::kBgp;
  bgp.admin_distance = 20;
  bgp.next_hop = addr("2.2.2.2");  // nothing resolves this
  rib.add(bgp);
  aft::Aft fib = compile_fib(rib);
  EXPECT_EQ(fib.entry_count(), 0u);
}

TEST(CompileFib, DropRouteProgrammedAsDrop) {
  Rib rib;
  RibRoute null_route;
  null_route.prefix = pfx("0.0.0.0/0");
  null_route.protocol = Protocol::kStatic;
  null_route.drop = true;
  rib.add(null_route);
  aft::Aft fib = compile_fib(rib);
  auto hops = fib.forward(addr("8.8.8.8"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_TRUE(hops[0].drop);
}

TEST(CompileFib, IdenticalRibsCompileForwardingEqual) {
  aft::Aft a = compile_fib(typical_rib());
  aft::Aft b = compile_fib(typical_rib());
  EXPECT_TRUE(a.forwarding_equal(b));
}


// -- delta compile ≡ full compile -------------------------------------------

/// A random route of one of the kinds a router installs: connected,
/// interface or recursive static, drop, IS-IS, recursive BGP/iBGP and
/// labelled TE. Prefixes and next hops share one small pool, so routes
/// resolve through each other, shadow each other and sometimes through
/// themselves.
RibRoute random_route(util::Pcg32& rng) {
  const uint32_t net = rng.next_below(24);
  const uint8_t length = static_cast<uint8_t>(16 + 8 * rng.next_below(3));
  RibRoute route;
  route.prefix = net::Ipv4Prefix(net::Ipv4Address(10, static_cast<uint8_t>(net % 6),
                                                  static_cast<uint8_t>(net / 6), 1),
                                 length);
  const net::Ipv4Address hop(10, static_cast<uint8_t>(rng.next_below(6)),
                             static_cast<uint8_t>(rng.next_below(4)), 1);
  const std::string interface = "Ethernet" + std::to_string(rng.next_below(4));
  switch (rng.next_below(7)) {
    case 0:
      route.protocol = Protocol::kConnected;
      route.interface = interface;
      route.source = interface;
      break;
    case 1:
      route.protocol = Protocol::kStatic;
      route.next_hop = hop;
      if (rng.next_below(2)) route.interface = interface;
      route.source = "static";
      break;
    case 2:
      route.protocol = Protocol::kStatic;
      route.drop = true;
      route.source = "static";
      break;
    case 3:
      route.protocol = Protocol::kIsis;
      route.next_hop = hop;
      route.interface = interface;
      route.metric = rng.next_below(3);
      route.source = "default";
      break;
    case 4:
    case 5:
      route.protocol = rng.next_below(2) ? Protocol::kBgp : Protocol::kIbgp;
      route.next_hop = hop;
      route.metric = rng.next_below(2);
      route.source = "bgp";
      break;
    default:
      route.protocol = Protocol::kTe;
      route.next_hop = hop;
      route.push_label = 100000 + rng.next_below(3);
      route.source = "tunnel" + std::to_string(rng.next_below(2));
      break;
  }
  route.admin_distance = default_admin_distance(route.protocol);
  return route;
}

void mutate(Rib& rib, util::Pcg32& rng) {
  switch (rng.next_below(8)) {
    case 0:
    case 1:
    case 2:
      rib.add(random_route(rng));
      break;
    case 3: {
      RibRoute route = random_route(rng);
      std::vector<RibRoute> present = rib.candidates(route.prefix);
      if (!present.empty()) rib.remove(present[rng.next_below(static_cast<uint32_t>(present.size()))]);
      break;
    }
    case 4:
      rib.clear_protocol(rng.next_below(2) ? Protocol::kStatic : Protocol::kConnected);
      break;
    default: {
      // An SPF/BGP-style reinstall: mostly the same routes, a few changed.
      const Protocol protocol = rng.next_below(2) ? Protocol::kIsis : Protocol::kBgp;
      std::vector<RibRoute> fresh;
      rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>&) {
        for (const RibRoute& route : rib.candidates(prefix))
          if (route.protocol == protocol && rng.next_below(8) != 0) fresh.push_back(route);
      });
      for (uint32_t i = rng.next_below(3); i > 0; --i) {
        RibRoute route = random_route(rng);
        if (route.protocol == protocol) fresh.push_back(route);
      }
      rib.replace_protocol(protocol, protocol == Protocol::kIsis ? "default" : "bgp",
                           std::move(fresh));
      break;
    }
  }
}

TEST(DeltaFib, PatchedTableIsByteIdenticalToFullCompile) {
  size_t patched = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    util::Pcg32 rng(seed);
    // A default RIB with every route kind and a VRF-style RIB of connected
    // and static routes, each with the table installed from it.
    Rib ribs[2];
    std::optional<aft::Aft> installed[2];
    for (int i = 0; i < 60; ++i) ribs[0].add(random_route(rng));
    for (int step = 0; step < 40; ++step) {
      for (int table = 0; table < 2; ++table) {
        Rib& rib = ribs[table];
        for (uint32_t n = 1 + rng.next_below(3); n > 0; --n) {
          if (table == 0) {
            mutate(rib, rng);
          } else {
            RibRoute route = random_route(rng);
            if (route.protocol == Protocol::kConnected || route.protocol == Protocol::kStatic)
              rng.next_below(3) ? void(rib.add(route)) : void(rib.remove(route));
          }
        }
        if (rng.next_below(3) == 0) continue;  // coalesce: let the dirty set grow
        FibUpdate update = update_fib(rib, installed[table] ? &*installed[table] : nullptr);
        aft::Aft full = compile_fib(rib);
        ASSERT_EQ(update.fib.to_json().dump(), full.to_json().dump())
            << "seed " << seed << " step " << step << " table " << table;
        if (update.patched) ++patched;
        if (installed[table]) {
          EXPECT_EQ(update.forwards_like(*installed[table]),
                    full.forwarding_equal(*installed[table]));
          if (update.forwards_like(*installed[table])) continue;  // keep; stays dirty
        }
        installed[table] = std::move(update.fib);
        rib.mark_installed();
      }
    }
  }
  EXPECT_GT(patched, 1000u);  // the delta path, not just the full one, was checked
}

TEST(DeltaFib, LabelledInstalledTableForcesFullCompile) {
  Rib rib = typical_rib();
  aft::Aft installed = compile_fib(rib);
  rib.mark_installed();
  installed.set_label_entry({100001, installed.add_group(installed.add_next_hop({}))});
  RibRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.protocol = Protocol::kStatic;
  route.next_hop = addr("2.2.2.2");
  rib.add(route);
  FibUpdate update = update_fib(rib, &installed);
  EXPECT_FALSE(update.patched.has_value());
  EXPECT_EQ(update.entries_resolved, rib.prefix_count());
  EXPECT_EQ(update.fib.to_json().dump(), compile_fib(rib).to_json().dump());
}

TEST(DeltaFib, CleanRibSharesTheInstalledTable) {
  Rib rib = typical_rib();
  aft::Aft installed = compile_fib(rib);
  rib.mark_installed();
  FibUpdate update = update_fib(rib, &installed);
  ASSERT_TRUE(update.patched.has_value());
  EXPECT_TRUE(update.patched->empty());
  EXPECT_EQ(update.entries_resolved, 0u);
  EXPECT_TRUE(update.fib.shares_tables(installed));
}

TEST(DeltaFib, RecursiveEntriesFollowTheirResolvingRoute) {
  Rib rib = typical_rib();  // BGP 203.0.113.0/24 via 2.2.2.2 via IS-IS
  for (int i = 2; i <= 5; ++i) {  // unrelated prefixes: a patch stays cheaper
    RibRoute connected;
    connected.prefix = pfx("100.64." + std::to_string(i) + ".0/31");
    connected.protocol = Protocol::kConnected;
    connected.interface = "Ethernet" + std::to_string(i);
    rib.add(connected);
  }
  aft::Aft installed = compile_fib(rib);
  rib.mark_installed();
  RibRoute isis;
  isis.prefix = pfx("2.2.2.2/32");
  isis.protocol = Protocol::kIsis;
  isis.admin_distance = 115;
  isis.metric = 20;
  isis.next_hop = addr("100.64.0.1");
  isis.interface = "Ethernet1";
  isis.source = "";
  ASSERT_TRUE(rib.remove(isis));
  // Only the IS-IS prefix is dirty, yet the BGP entry it carried must go.
  EXPECT_EQ(rib.dirty().size(), 1u);
  FibUpdate update = update_fib(rib, &installed);
  ASSERT_TRUE(update.patched.has_value());
  EXPECT_EQ(update.fib.ipv4_entry(pfx("203.0.113.0/24")), nullptr);
  EXPECT_EQ(update.fib.to_json().dump(), compile_fib(rib).to_json().dump());
  EXPECT_FALSE(update.forwards_like(installed));
}

}  // namespace
}  // namespace mfv::rib

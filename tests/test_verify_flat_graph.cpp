// Flat-lookup identity: the dense-id ForwardingGraph (interval-array LPM,
// hop arena, sorted owner table) must answer every lookup exactly like a
// string-keyed reference — a per-node PrefixTrie longest match, a
// last-wins owner map, and the by-name ingress/egress filter resolution. Probed at every packet-class representative and at both
// boundaries of every class, on adversarial synthetic dataplanes (MPLS
// cycles, ECMP, drops, dangling groups and hops), on hand-built ownership
// corner cases, and on a converged 200-router WAN.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "emu/emulation.hpp"
#include "fuzz/fuzz.hpp"
#include "net/prefix_trie.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/packet_classes.hpp"
#include "workload/generator.hpp"

namespace mfv::verify {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

aft::InterfaceState interface(const std::string& name, const std::string& cidr,
                              bool up = true) {
  aft::InterfaceState state;
  state.name = name;
  state.address = net::InterfaceAddress::parse(cidr);
  state.oper_up = up;
  return state;
}

/// The lookups as the string-keyed graph computed them.
class Reference {
 public:
  explicit Reference(const gnmi::Snapshot& snapshot) : snapshot_(snapshot) {
    for (const auto& [node, device] : snapshot.devices) {
      net::PrefixTrie<const aft::Ipv4Entry*>& trie = tries_[node];
      for (const auto& [prefix, entry] : device.aft.ipv4_entries()) trie.insert(prefix, &entry);
      for (const auto& [name, interface] : device.interfaces) {
        if (!interface.oper_up || !interface.address || !interface.vrf.empty()) continue;
        owners_[interface.address->address.bits()] = node;
        connected_[node].push_back(interface.address->subnet);
      }
    }
  }

  const aft::Ipv4Entry* lookup(const net::NodeName& node, net::Ipv4Address address) const {
    auto match = tries_.at(node).longest_match(address);
    return match ? *match->second : nullptr;
  }

  std::optional<net::NodeName> owner(net::Ipv4Address address) const {
    auto it = owners_.find(address.bits());
    if (it == owners_.end()) return std::nullopt;
    return it->second;
  }

  bool on_connected_subnet(const net::NodeName& node, net::Ipv4Address address) const {
    auto it = connected_.find(node);
    if (it == connected_.end()) return false;
    for (const net::Ipv4Prefix& subnet : it->second)
      if (subnet.contains(address)) return true;
    return false;
  }

  /// Resolved hops of a group: dangling groups empty, dangling indices
  /// skipped.
  std::vector<const aft::NextHop*> hops(const net::NodeName& node, uint64_t group_id) const {
    const aft::Aft& aft = snapshot_.devices.at(node).aft;
    std::vector<const aft::NextHop*> out;
    const aft::NextHopGroup* group = aft.group(group_id);
    if (group == nullptr) return out;
    for (const auto& [index, weight] : group->next_hops)
      if (const aft::NextHop* hop = aft.next_hop(index)) out.push_back(hop);
    return out;
  }

  const AclRules* egress(const net::NodeName& node, const net::InterfaceName& name) const {
    const auto& interfaces = snapshot_.devices.at(node).interfaces;
    auto it = interfaces.find(name);
    if (it == interfaces.end() || !it->second.acl_out) return nullptr;
    return &*it->second.acl_out;
  }

  /// Ingress filter where `node` receives `via`: first up interface, in
  /// name order, addressed `via`.
  const AclRules* ingress(const net::NodeName& node, net::Ipv4Address via) const {
    for (const auto& [name, interface] : snapshot_.devices.at(node).interfaces)
      if (interface.oper_up && interface.address && interface.address->address == via)
        return interface.acl_in ? &*interface.acl_in : nullptr;
    return nullptr;
  }

 private:
  const gnmi::Snapshot& snapshot_;
  std::map<net::NodeName, net::PrefixTrie<const aft::Ipv4Entry*>> tries_;
  std::map<uint32_t, net::NodeName> owners_;
  std::map<net::NodeName, std::vector<net::Ipv4Prefix>> connected_;
};

/// Probe addresses: every class representative and both class
/// boundaries, plus every interface address.
std::vector<net::Ipv4Address> probes(const ForwardingGraph& graph) {
  std::set<net::Ipv4Address> out;
  for (const PacketClass& cls : compute_packet_classes(graph.relevant_prefixes())) {
    out.insert(cls.representative());
    out.insert(cls.first);
    out.insert(cls.last);
  }
  for (const auto& [node, device] : graph.snapshot().devices)
    for (const auto& [name, interface] : device.interfaces)
      if (interface.address) out.insert(interface.address->address);
  return {out.begin(), out.end()};
}

/// Checks one resolved hop span against the reference group resolution,
/// including the owner and the filters resolved into each hop.
void expect_hops(const ForwardingGraph& graph, const Reference& reference,
                 const net::NodeName& node, uint64_t group_id,
                 ForwardingGraph::Hops hops) {
  std::vector<const aft::NextHop*> expected = reference.hops(node, group_id);
  ASSERT_EQ(hops.size(), expected.size()) << node << " group " << group_id;
  for (size_t i = 0; i < hops.size(); ++i) {
    const ForwardingGraph::Hop& hop = hops[i];
    ASSERT_EQ(hop.next_hop, expected[i]) << node << " group " << group_id << " hop " << i;
    const AclRules* egress =
        hop.next_hop->interface ? reference.egress(node, *hop.next_hop->interface) : nullptr;
    EXPECT_EQ(hop.acl_out, egress) << node << " group " << group_id;
    std::optional<net::NodeName> owner;
    if (hop.next_hop->ip_address) owner = reference.owner(*hop.next_hop->ip_address);
    if (!owner) {
      EXPECT_EQ(hop.owner, kNoNode) << node << " group " << group_id;
      EXPECT_EQ(hop.acl_in, nullptr);
      continue;
    }
    ASSERT_NE(hop.owner, kNoNode) << node << " group " << group_id;
    EXPECT_EQ(graph.name_of(hop.owner), *owner);
    EXPECT_EQ(hop.acl_in, reference.ingress(*owner, *hop.next_hop->ip_address));
  }
}

/// Every flat lookup of `snapshot` against the reference; adds the number
/// of (node, address) probes checked to `checked`.
void expect_identical(const gnmi::Snapshot& snapshot, size_t& checked) {
  ForwardingGraph graph(snapshot);
  const gnmi::Snapshot& owned = graph.snapshot();
  Reference reference(owned);
  std::vector<net::Ipv4Address> addresses = probes(graph);

  EXPECT_EQ(graph.node_count(), owned.devices.size());
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const net::NodeName& node = graph.name_of(id);
    EXPECT_EQ(graph.id_of(node), id);
    EXPECT_TRUE(owned.devices.count(node));

    for (net::Ipv4Address address : addresses) {
      const aft::Ipv4Entry* expected = reference.lookup(node, address);
      const ForwardingGraph::Route* route = graph.route(id, address);
      ASSERT_EQ(route != nullptr ? route->entry : nullptr, expected)
          << node << " " << address.to_string();
      EXPECT_EQ(graph.lookup(node, address), expected);
      EXPECT_EQ(graph.on_connected_subnet(id, address),
                reference.on_connected_subnet(node, address))
          << node << " " << address.to_string();
      EXPECT_EQ(graph.owns(node, address), reference.owner(address) == node);
      ++checked;
    }

    // Every route's hops, resolved once per entry.
    const aft::Aft& aft = owned.devices.at(node).aft;
    for (const auto& [prefix, entry] : aft.ipv4_entries()) {
      std::vector<aft::NextHop> copied = graph.next_hops(node, entry);
      std::vector<const aft::NextHop*> resolved =
          reference.hops(node, entry.next_hop_group);
      ASSERT_EQ(copied.size(), resolved.size());
      for (size_t i = 0; i < copied.size(); ++i) EXPECT_EQ(copied[i], *resolved[i]);
      const ForwardingGraph::Route* route = graph.route(id, prefix.first_address());
      ASSERT_NE(route, nullptr);
      if (route->entry != &entry) continue;  // shadowed start: a longer prefix wins
      expect_hops(graph, reference, node, entry.next_hop_group, route->hops);
    }
    // Label bindings, plus a label nobody binds.
    uint32_t unbound = 0;
    for (const auto& [label, entry] : aft.label_entries()) {
      const ForwardingGraph::LabelRoute* binding = graph.label_route(id, label);
      ASSERT_NE(binding, nullptr) << node << " label " << label;
      EXPECT_EQ(binding->entry, &entry);
      EXPECT_EQ(graph.lookup_label(node, label), &entry);
      expect_hops(graph, reference, node, entry.next_hop_group, binding->hops);
      unbound = label + 1;
    }
    if (aft.label_entries().count(unbound) == 0) {
      EXPECT_EQ(graph.label_route(id, unbound), nullptr);
    }
  }

  for (net::Ipv4Address address : addresses) {
    std::optional<net::NodeName> expected = reference.owner(address);
    const ForwardingGraph::Owner* owner = graph.owner(address);
    ASSERT_EQ(owner != nullptr, expected.has_value()) << address.to_string();
    EXPECT_EQ(graph.address_owner(address), expected);
    if (owner == nullptr) continue;
    EXPECT_EQ(graph.name_of(owner->node), *expected);
    EXPECT_EQ(owner->acl_in, reference.ingress(*expected, address)) << address.to_string();
  }
  EXPECT_EQ(graph.id_of("no-such-node"), kNoNode);
  EXPECT_EQ(graph.lookup("no-such-node", addr("10.0.0.1")), nullptr);
}

TEST(FlatGraph, MatchesReferenceOnSyntheticDataplanes) {
  size_t checked = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("synthetic seed " + std::to_string(seed));
    expect_identical(fuzz::synth_snapshot(seed), checked);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 10000u);
}

/// Corner cases the synthetic generator hits only by chance: duplicate
/// owners (last registration wins), an ingress interface in a VRF that
/// sorts before the default-instance one, nested prefixes down to /32 at
/// both ends of the address space, a dangling group and a dangling hop.
TEST(FlatGraph, MatchesReferenceOnOwnershipAndNestingCorners) {
  gnmi::Snapshot snapshot;
  AclRules deny_all = {{false, pfx("0.0.0.0/0")}};
  AclRules deny_some = {{false, pfx("10.9.0.0/16")}, {true, pfx("0.0.0.0/0")}};

  aft::DeviceAft a;
  a.node = "a";
  a.interfaces["Ethernet1"] = interface("Ethernet1", "10.0.0.1/24");
  a.interfaces["Ethernet1"].acl_in = deny_some;
  a.interfaces["Ethernet2"] = interface("Ethernet2", "10.0.1.1/24");
  a.interfaces["Ethernet2"].acl_out = deny_some;
  a.interfaces["Ethernet3"] = interface("Ethernet3", "10.0.2.1/24", false);
  aft::NextHop to_b;
  to_b.ip_address = addr("10.0.1.2");
  to_b.interface = "Ethernet2";
  uint64_t to_b_index = a.aft.add_next_hop(to_b);
  aft::NextHop to_dup;
  to_dup.ip_address = addr("10.0.0.1");
  to_dup.interface = "Ethernet1";
  uint64_t to_dup_index = a.aft.add_next_hop(to_dup);
  aft::NextHop drop;
  drop.drop = true;
  uint64_t drop_index = a.aft.add_next_hop(drop);
  uint64_t ecmp = a.aft.add_group({{to_b_index, 1}, {to_dup_index, 1}, {999, 1}});
  a.aft.set_ipv4_entry({pfx("0.0.0.0/0"), ecmp, "STATIC", 0});
  a.aft.set_ipv4_entry({pfx("0.0.0.0/32"), a.aft.add_group(drop_index), "STATIC", 0});
  a.aft.set_ipv4_entry({pfx("10.0.0.0/8"), a.aft.add_group(to_b_index), "ISIS", 10});
  a.aft.set_ipv4_entry({pfx("10.0.0.0/16"), a.aft.add_group(to_dup_index), "ISIS", 10});
  a.aft.set_ipv4_entry({pfx("10.0.0.0/24"), 4242, "BGP", 0});  // dangling group
  a.aft.set_ipv4_entry({pfx("10.0.0.128/25"), ecmp, "BGP", 0});
  a.aft.set_ipv4_entry({pfx("10.255.255.255/32"), ecmp, "BGP", 0});
  a.aft.set_ipv4_entry({pfx("255.255.255.255/32"), a.aft.add_group(drop_index), "STATIC", 0});
  snapshot.devices["a"] = a;

  aft::DeviceAft b;
  b.node = "b";
  // Same address as a:Ethernet1; b registers later, so b owns it, and its
  // ingress resolves to the first up interface by name — the VRF one.
  b.interfaces["Aaa-vrf"] = interface("Aaa-vrf", "10.0.0.1/24");
  b.interfaces["Aaa-vrf"].vrf = "blue";
  b.interfaces["Aaa-vrf"].acl_in = deny_all;
  b.interfaces["Ethernet1"] = interface("Ethernet1", "10.0.0.1/24");
  b.interfaces["Ethernet2"] = interface("Ethernet2", "10.0.1.2/24");
  b.interfaces["Ethernet2"].acl_in = deny_some;
  aft::NextHop attached;
  attached.interface = "Ethernet1";
  b.aft.set_ipv4_entry({pfx("10.0.0.0/24"), b.aft.add_group(b.aft.add_next_hop(attached)),
                        "CONNECTED", 0});
  snapshot.devices["b"] = b;
  snapshot.devices["c"].node = "c";  // no interfaces, no routes

  size_t checked = 0;
  expect_identical(snapshot, checked);
  EXPECT_GT(checked, 0u);

  ForwardingGraph graph(snapshot);
  const ForwardingGraph::Owner* owner = graph.owner(addr("10.0.0.1"));
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(graph.name_of(owner->node), "b");
  ASSERT_NE(owner->acl_in, nullptr);
  EXPECT_EQ(*owner->acl_in, deny_all);
  // The dangling hop index of the ECMP group is skipped, the dangling
  // group resolves to no hops, and "c" routes nothing.
  EXPECT_EQ(graph.route(graph.id_of("a"), addr("1.2.3.4"))->hops.size(), 2u);
  EXPECT_TRUE(graph.route(graph.id_of("a"), addr("10.0.0.7"))->hops.empty());
  EXPECT_EQ(graph.route(graph.id_of("c"), addr("10.0.0.7")), nullptr);
}

TEST(FlatGraph, MatchesReferenceOnTwoHundredRouterWan) {
  workload::WanOptions options;
  options.routers = 200;
  options.seed = 11;
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(workload::wan_topology(options)).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  gnmi::Snapshot snapshot = gnmi::Snapshot::capture(emulation, "wan200");
  ASSERT_EQ(snapshot.devices.size(), 200u);
  size_t checked = 0;
  expect_identical(snapshot, checked);
  EXPECT_GT(checked, 200u * 500u);
}

}  // namespace
}  // namespace mfv::verify

// Forwarding-graph model of a dataplane snapshot.
//
// Indexes a gnmi::Snapshot for fast per-hop resolution: per-device LPM
// over the AFT entries, an address-ownership table (who answers for a
// next-hop IP), and per-device connected subnets (attached delivery). This
// is the "formally model the dataplane" stage of §4.2 — everything the
// trace walker and the exhaustive queries need.
//
// The graph is built once into a flat, read-only form and never mutates
// afterwards, so any number of threads may query it concurrently:
//   * node names are interned to dense NodeIds (name order);
//   * each node's LPM is a sorted array of address intervals, built in one
//     pass over the already-sorted AFT map;
//   * every resolved next hop lives in one arena, with its downstream
//     owner and the egress/ingress filters it meets already resolved, and
//     routes refer to spans of that arena.
// The string-keyed accessors below are thin wrappers over the same tables
// for the legacy per-flow walker (trace.cpp), the CLI and utilization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gnmi/gnmi.hpp"

namespace mfv::verify {

/// Dense node index of a ForwardingGraph: position in name order.
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

using AclRules = std::vector<aft::AclRule>;

class ForwardingGraph {
 public:
  /// One resolved next hop: the AFT hop plus what the walkers would
  /// otherwise look up by name on every traversal.
  struct Hop {
    const aft::NextHop* next_hop = nullptr;
    /// Device owning next_hop->ip_address; kNoNode when the hop is not
    /// addressed or nobody owns the address.
    NodeId owner = kNoNode;
    /// Egress filter of next_hop->interface on this node (null = none).
    const AclRules* acl_out = nullptr;
    /// Ingress filter where `owner` receives next_hop->ip_address.
    const AclRules* acl_in = nullptr;
  };
  using Hops = std::span<const Hop>;

  /// An AFT entry with its resolved next hops (empty = dangling group).
  struct Route {
    const aft::Ipv4Entry* entry = nullptr;
    Hops hops;
  };
  struct LabelRoute {
    uint32_t label = 0;
    const aft::LabelEntry* entry = nullptr;
    Hops hops;
  };
  /// Owner of an address on an up default-instance interface.
  struct Owner {
    uint32_t address = 0;
    NodeId node = kNoNode;
    /// Ingress filter of the interface receiving traffic for `address`.
    const AclRules* acl_in = nullptr;
  };

  explicit ForwardingGraph(const gnmi::Snapshot& snapshot);
  // The tables point into snapshot_, so the graph stays where it was built.
  ForwardingGraph(const ForwardingGraph&) = delete;
  ForwardingGraph& operator=(const ForwardingGraph&) = delete;

  const gnmi::Snapshot& snapshot() const { return snapshot_; }

  // -- Dense-id interface (the memoized engine and the splicer) ----------

  size_t node_count() const { return names_.size(); }
  /// Node names in id order (sorted).
  const std::vector<net::NodeName>& nodes() const { return names_; }
  const net::NodeName& name_of(NodeId node) const { return names_[node]; }
  /// Id of `node`, or kNoNode when it is not in the graph.
  NodeId id_of(const net::NodeName& node) const;

  /// Longest-prefix match of `destination` on `node`; null = no route.
  const Route* route(NodeId node, net::Ipv4Address destination) const;
  /// MPLS label binding of `node`; null = none.
  const LabelRoute* label_route(NodeId node, uint32_t label) const;
  /// Every label binding of `node`, in label order.
  std::span<const LabelRoute> label_routes(NodeId node) const;
  /// Owner of `address`; null = nobody.
  const Owner* owner(net::Ipv4Address address) const;
  /// True if `address` falls in one of `node`'s up connected subnets.
  bool on_connected_subnet(NodeId node, net::Ipv4Address address) const;

  /// Applies a resolved filter; null (no filter attached) permits.
  static bool permits(const AclRules* acl, net::Ipv4Address destination) {
    return acl == nullptr || aft::acl_permits(*acl, destination);
  }

  // -- String-keyed wrappers ----------------------------------------------

  bool has_node(const net::NodeName& node) const { return id_of(node) != kNoNode; }

  /// LPM lookup of `destination` in `node`'s AFT.
  const aft::Ipv4Entry* lookup(const net::NodeName& node,
                               net::Ipv4Address destination) const;

  /// MPLS label lookup in `node`'s AFT (LSP following).
  const aft::LabelEntry* lookup_label(const net::NodeName& node, uint32_t label) const;
  std::vector<aft::NextHop> label_next_hops(const net::NodeName& node,
                                            const aft::LabelEntry& entry) const;

  /// Resolved next hops of an entry on a node (empty if the group is
  /// dangling — treated as unreachable by the walker).
  std::vector<aft::NextHop> next_hops(const net::NodeName& node,
                                      const aft::Ipv4Entry& entry) const;

  /// Device owning `address` on an operationally-up interface.
  std::optional<net::NodeName> address_owner(net::Ipv4Address address) const;

  /// True if `node` owns `address` on an up interface.
  bool owns(const net::NodeName& node, net::Ipv4Address address) const;

  /// True if `address` falls in one of `node`'s up connected subnets.
  bool on_connected_subnet(const net::NodeName& node, net::Ipv4Address address) const;

  /// Interface state lookup (packet filters, addresses).
  const aft::InterfaceState* interface_state(const net::NodeName& node,
                                             const net::InterfaceName& interface) const;
  /// The up interface of `node` owning `address` (ingress resolution).
  const aft::InterfaceState* interface_owning(const net::NodeName& node,
                                              net::Ipv4Address address) const;

  /// Applies the egress filter of (node, interface) to `destination`.
  /// True = forward; absent filter permits.
  bool egress_permits(const net::NodeName& node, const net::InterfaceName& interface,
                      net::Ipv4Address destination) const;
  /// Applies the ingress filter of the interface owning `via` on `node`.
  bool ingress_permits(const net::NodeName& node, net::Ipv4Address via,
                       net::Ipv4Address destination) const;

  /// Every distinct prefix that shapes forwarding anywhere: all FIB
  /// prefixes plus all interface subnets and addresses. The packet-class
  /// partition is computed from this set.
  std::vector<net::Ipv4Prefix> relevant_prefixes() const;

 private:
  /// [begin, end) slice of a per-node flat table.
  struct Range {
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  /// A node's slices of the flat tables below.
  struct NodeRanges {
    Range groups;
    Range labels;
    Range lpm;
    Range connected;
  };
  struct Group {
    uint64_t id = 0;
    Hops hops;
  };

  Hops group_hops(NodeId node, uint64_t group_id) const;

  gnmi::Snapshot snapshot_;
  std::vector<net::NodeName> names_;
  std::vector<const aft::DeviceAft*> devices_;  // by id
  std::vector<NodeRanges> ranges_;               // by id
  /// Sorted by address. A duplicate address belongs to its last
  /// registration, in device then interface name order.
  std::vector<Owner> owners_;
  std::vector<Hop> hop_arena_;
  /// Per-node groups, sorted by group id.
  std::vector<Group> groups_;
  std::vector<Route> routes_;
  std::vector<LabelRoute> label_routes_;
  /// Per-node LPM: interval i covers [lpm_start_[i], lpm_start_[i+1]) and
  /// resolves to routes_[lpm_route_[i]] (kNoRoute = no covering entry).
  static constexpr uint32_t kNoRoute = ~uint32_t{0};
  std::vector<uint32_t> lpm_start_;
  std::vector<uint32_t> lpm_route_;
  std::vector<net::Ipv4Prefix> connected_;
};

}  // namespace mfv::verify

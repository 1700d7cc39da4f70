#include "verify/forwarding_graph.hpp"

#include <algorithm>

namespace mfv::verify {

namespace {

/// The up interface of `device` whose address is `address`, in interface
/// name order (any instance, like the ingress resolution always did).
const aft::InterfaceState* find_interface_owning(const aft::DeviceAft& device,
                                                 net::Ipv4Address address) {
  for (const auto& [name, interface] : device.interfaces)
    if (interface.oper_up && interface.address && interface.address->address == address)
      return &interface;
  return nullptr;
}

const AclRules* acl_or_null(const std::optional<AclRules>& acl) {
  return acl ? &*acl : nullptr;
}

/// Appends the LPM intervals of one node's entries (sorted by address,
/// then length, so a covering prefix precedes everything it covers).
/// Prefixes are laminar — two either nest or are disjoint — so a stack of
/// open prefixes yields the elementary intervals in one pass; adjacent
/// intervals resolving to the same route are merged.
class IntervalBuilder {
 public:
  IntervalBuilder(std::vector<uint32_t>& starts, std::vector<uint32_t>& routes,
                  uint32_t no_route)
      : starts_(starts), routes_(routes), begin_(starts.size()), no_route_(no_route) {
    starts_.push_back(0);
    routes_.push_back(no_route);
  }

  void add(const net::Ipv4Prefix& prefix, uint32_t route) {
    uint64_t first = prefix.first_address().bits();
    close_before(first);
    set(first, route);
    open_.push_back({prefix.last_address().bits(), route});
  }

  void finish() { close_before(uint64_t{1} << 32); }

 private:
  struct Open {
    uint64_t last;
    uint32_t route;
  };

  void close_before(uint64_t address) {
    while (!open_.empty() && open_.back().last < address) {
      uint64_t resume = open_.back().last + 1;
      open_.pop_back();
      if (resume <= UINT32_MAX) set(resume, open_.empty() ? no_route_ : open_.back().route);
    }
  }

  /// Routes [address, ...) to `route` until the next set().
  void set(uint64_t address, uint32_t route) {
    if (starts_.back() == address) {
      routes_.back() = route;
      if (starts_.size() - begin_ > 1 && routes_[routes_.size() - 2] == route) {
        starts_.pop_back();
        routes_.pop_back();
      }
      return;
    }
    if (routes_.back() == route) return;
    starts_.push_back(static_cast<uint32_t>(address));
    routes_.push_back(route);
  }

  std::vector<uint32_t>& starts_;
  std::vector<uint32_t>& routes_;
  size_t begin_;
  uint32_t no_route_;
  std::vector<Open> open_;
};

}  // namespace

ForwardingGraph::ForwardingGraph(const gnmi::Snapshot& snapshot) : snapshot_(snapshot) {
  const size_t node_count = snapshot_.devices.size();
  names_.reserve(node_count);
  devices_.reserve(node_count);
  ranges_.resize(node_count);
  for (const auto& [node, device] : snapshot_.devices) {
    names_.push_back(node);
    devices_.push_back(&device);
  }

  // Ownership and connected subnets. Non-default-instance (VRF)
  // interfaces are invisible to the default forwarding graph: their
  // addresses are not reachable through it.
  for (NodeId id = 0; id < node_count; ++id) {
    ranges_[id].connected.begin = static_cast<uint32_t>(connected_.size());
    for (const auto& [name, interface] : devices_[id]->interfaces) {
      if (!interface.oper_up || !interface.address || !interface.vrf.empty()) continue;
      owners_.push_back({interface.address->address.bits(), id, nullptr});
      connected_.push_back(interface.address->subnet);
    }
    ranges_[id].connected.end = static_cast<uint32_t>(connected_.size());
  }
  // Registration order is device then interface name order; a duplicate
  // address resolves to its last registration.
  std::stable_sort(owners_.begin(), owners_.end(),
                   [](const Owner& a, const Owner& b) { return a.address < b.address; });
  auto last_wins = std::unique(owners_.rbegin(), owners_.rend(),
                               [](const Owner& a, const Owner& b) {
                                 return a.address == b.address;
                               });
  owners_.erase(owners_.begin(), last_wins.base());
  for (Owner& owner : owners_) {
    const aft::InterfaceState* ingress =
        find_interface_owning(*devices_[owner.node], net::Ipv4Address(owner.address));
    owner.acl_in = ingress != nullptr ? acl_or_null(ingress->acl_in) : nullptr;
  }

  // Hop arena: every group's resolved hops, contiguous per group. Sized up
  // front so the spans handed out stay valid.
  size_t hop_bound = 0;
  for (const aft::DeviceAft* device : devices_)
    for (const auto& [id, group] : device->aft.groups()) hop_bound += group.next_hops.size();
  hop_arena_.reserve(hop_bound);
  for (NodeId id = 0; id < node_count; ++id) {
    const aft::DeviceAft& device = *devices_[id];
    ranges_[id].groups.begin = static_cast<uint32_t>(groups_.size());
    for (const auto& [group_id, group] : device.aft.groups()) {
      size_t begin = hop_arena_.size();
      for (const auto& [index, weight] : group.next_hops) {
        const aft::NextHop* next_hop = device.aft.next_hop(index);
        if (next_hop == nullptr) continue;  // dangling index: skipped
        Hop hop;
        hop.next_hop = next_hop;
        if (next_hop->interface) {
          auto interface = device.interfaces.find(*next_hop->interface);
          if (interface != device.interfaces.end())
            hop.acl_out = acl_or_null(interface->second.acl_out);
        }
        if (next_hop->ip_address) {
          if (const Owner* downstream = owner(*next_hop->ip_address)) {
            hop.owner = downstream->node;
            hop.acl_in = downstream->acl_in;
          }
        }
        hop_arena_.push_back(hop);
      }
      groups_.push_back(
          {group_id, Hops(hop_arena_.data() + begin, hop_arena_.size() - begin)});
    }
    ranges_[id].groups.end = static_cast<uint32_t>(groups_.size());
  }

  // Routes, label bindings and the LPM interval arrays.
  size_t route_count = 0;
  for (const aft::DeviceAft* device : devices_) route_count += device->aft.entry_count();
  routes_.reserve(route_count);
  // A node's n prefixes cut the address space into at most 2n+1 intervals.
  lpm_start_.reserve(2 * route_count + node_count);
  lpm_route_.reserve(2 * route_count + node_count);
  for (NodeId id = 0; id < node_count; ++id) {
    const aft::Aft& aft = devices_[id]->aft;
    ranges_[id].lpm.begin = static_cast<uint32_t>(lpm_start_.size());
    IntervalBuilder intervals(lpm_start_, lpm_route_, kNoRoute);
    for (const auto& [prefix, entry] : aft.ipv4_entries()) {
      intervals.add(prefix, static_cast<uint32_t>(routes_.size()));
      routes_.push_back({&entry, group_hops(id, entry.next_hop_group)});
    }
    intervals.finish();
    ranges_[id].lpm.end = static_cast<uint32_t>(lpm_start_.size());

    ranges_[id].labels.begin = static_cast<uint32_t>(label_routes_.size());
    for (const auto& [label, entry] : aft.label_entries())
      label_routes_.push_back({label, &entry, group_hops(id, entry.next_hop_group)});
    ranges_[id].labels.end = static_cast<uint32_t>(label_routes_.size());
  }
}

NodeId ForwardingGraph::id_of(const net::NodeName& node) const {
  auto it = std::lower_bound(names_.begin(), names_.end(), node);
  if (it == names_.end() || *it != node) return kNoNode;
  return static_cast<NodeId>(it - names_.begin());
}

ForwardingGraph::Hops ForwardingGraph::group_hops(NodeId node, uint64_t group_id) const {
  auto begin = groups_.begin() + ranges_[node].groups.begin;
  auto end = groups_.begin() + ranges_[node].groups.end;
  auto it = std::lower_bound(begin, end, group_id,
                             [](const Group& group, uint64_t id) { return group.id < id; });
  if (it == end || it->id != group_id) return {};
  return it->hops;
}

const ForwardingGraph::Route* ForwardingGraph::route(NodeId node,
                                                     net::Ipv4Address destination) const {
  const uint32_t* begin = lpm_start_.data() + ranges_[node].lpm.begin;
  const uint32_t* end = lpm_start_.data() + ranges_[node].lpm.end;
  // The first interval starts at 0.0.0.0, so the predecessor always exists.
  size_t interval = (std::upper_bound(begin, end, destination.bits()) - begin) - 1;
  uint32_t index = lpm_route_[ranges_[node].lpm.begin + interval];
  return index == kNoRoute ? nullptr : &routes_[index];
}

const ForwardingGraph::LabelRoute* ForwardingGraph::label_route(NodeId node,
                                                               uint32_t label) const {
  std::span<const LabelRoute> bindings = label_routes(node);
  auto it = std::lower_bound(bindings.begin(), bindings.end(), label,
                             [](const LabelRoute& route, uint32_t l) { return route.label < l; });
  return it == bindings.end() || it->label != label ? nullptr : &*it;
}

std::span<const ForwardingGraph::LabelRoute> ForwardingGraph::label_routes(
    NodeId node) const {
  return {label_routes_.data() + ranges_[node].labels.begin,
          label_routes_.data() + ranges_[node].labels.end};
}

const ForwardingGraph::Owner* ForwardingGraph::owner(net::Ipv4Address address) const {
  auto it = std::lower_bound(owners_.begin(), owners_.end(), address.bits(),
                             [](const Owner& owner, uint32_t a) { return owner.address < a; });
  return it == owners_.end() || it->address != address.bits() ? nullptr : &*it;
}

bool ForwardingGraph::on_connected_subnet(NodeId node, net::Ipv4Address address) const {
  for (uint32_t i = ranges_[node].connected.begin; i < ranges_[node].connected.end; ++i)
    if (connected_[i].contains(address)) return true;
  return false;
}

const aft::Ipv4Entry* ForwardingGraph::lookup(const net::NodeName& node,
                                              net::Ipv4Address destination) const {
  NodeId id = id_of(node);
  if (id == kNoNode) return nullptr;
  const Route* match = route(id, destination);
  return match != nullptr ? match->entry : nullptr;
}

namespace {
std::vector<aft::NextHop> copy_hops(ForwardingGraph::Hops hops) {
  std::vector<aft::NextHop> out;
  out.reserve(hops.size());
  for (const ForwardingGraph::Hop& hop : hops) out.push_back(*hop.next_hop);
  return out;
}
}  // namespace

std::vector<aft::NextHop> ForwardingGraph::next_hops(const net::NodeName& node,
                                                     const aft::Ipv4Entry& entry) const {
  NodeId id = id_of(node);
  if (id == kNoNode) return {};
  return copy_hops(group_hops(id, entry.next_hop_group));
}

const aft::LabelEntry* ForwardingGraph::lookup_label(const net::NodeName& node,
                                                     uint32_t label) const {
  NodeId id = id_of(node);
  if (id == kNoNode) return nullptr;
  const LabelRoute* binding = label_route(id, label);
  return binding != nullptr ? binding->entry : nullptr;
}

std::vector<aft::NextHop> ForwardingGraph::label_next_hops(
    const net::NodeName& node, const aft::LabelEntry& entry) const {
  NodeId id = id_of(node);
  if (id == kNoNode) return {};
  return copy_hops(group_hops(id, entry.next_hop_group));
}

std::optional<net::NodeName> ForwardingGraph::address_owner(
    net::Ipv4Address address) const {
  const Owner* match = owner(address);
  if (match == nullptr) return std::nullopt;
  return names_[match->node];
}

bool ForwardingGraph::owns(const net::NodeName& node, net::Ipv4Address address) const {
  const Owner* match = owner(address);
  return match != nullptr && names_[match->node] == node;
}

bool ForwardingGraph::on_connected_subnet(const net::NodeName& node,
                                          net::Ipv4Address address) const {
  NodeId id = id_of(node);
  return id != kNoNode && on_connected_subnet(id, address);
}

const aft::InterfaceState* ForwardingGraph::interface_state(
    const net::NodeName& node, const net::InterfaceName& interface) const {
  NodeId id = id_of(node);
  if (id == kNoNode) return nullptr;
  auto it = devices_[id]->interfaces.find(interface);
  return it == devices_[id]->interfaces.end() ? nullptr : &it->second;
}

const aft::InterfaceState* ForwardingGraph::interface_owning(
    const net::NodeName& node, net::Ipv4Address address) const {
  NodeId id = id_of(node);
  return id == kNoNode ? nullptr : find_interface_owning(*devices_[id], address);
}

bool ForwardingGraph::egress_permits(const net::NodeName& node,
                                     const net::InterfaceName& interface,
                                     net::Ipv4Address destination) const {
  const aft::InterfaceState* state = interface_state(node, interface);
  return state == nullptr || permits(acl_or_null(state->acl_out), destination);
}

bool ForwardingGraph::ingress_permits(const net::NodeName& node, net::Ipv4Address via,
                                      net::Ipv4Address destination) const {
  const aft::InterfaceState* state = interface_owning(node, via);
  return state == nullptr || permits(acl_or_null(state->acl_in), destination);
}

std::vector<net::Ipv4Prefix> ForwardingGraph::relevant_prefixes() const {
  std::vector<net::Ipv4Prefix> prefixes;
  for (const aft::DeviceAft* device : devices_) {
    for (const auto& [prefix, entry] : device->aft.ipv4_entries()) prefixes.push_back(prefix);
    for (const auto& [name, interface] : device->interfaces) {
      if (interface.address && interface.vrf.empty()) {
        prefixes.push_back(interface.address->subnet);
        prefixes.push_back(net::Ipv4Prefix::host(interface.address->address));
      }
      // Packet-filter match boundaries shape forwarding too: without them
      // a class could straddle a permit/deny edge.
      if (interface.acl_in)
        for (const aft::AclRule& rule : *interface.acl_in) prefixes.push_back(rule.destination);
      if (interface.acl_out)
        for (const aft::AclRule& rule : *interface.acl_out)
          prefixes.push_back(rule.destination);
    }
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  return prefixes;
}

}  // namespace mfv::verify

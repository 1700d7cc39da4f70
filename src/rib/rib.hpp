// Routing Information Base shared by all protocol engines on a virtual
// router.
//
// Each protocol installs candidate routes; the RIB selects the best
// route(s) per prefix by (administrative distance, metric), keeping ties
// as an ECMP set. `compile_fib` then performs recursive next-hop
// resolution and emits the OpenConfig-shaped AFT that the gNMI layer
// exports — i.e. this file is where "converged control plane state"
// becomes "dataplane forwarding state".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "aft/aft.hpp"
#include "net/ipv4.hpp"
#include "net/prefix_trie.hpp"
#include "net/types.hpp"

namespace mfv::rib {

enum class Protocol : uint8_t {
  kConnected,
  kLocal,    // the interface's own /32
  kStatic,
  kGribi,   // programmatically injected (gRIBI-style API)
  kOspf,
  kIsis,
  kBgp,      // eBGP-learned
  kIbgp,     // iBGP-learned
  kTe,       // RSVP-TE tunnel route
};

std::string protocol_name(Protocol protocol);

/// Default administrative distances (EOS-like).
uint8_t default_admin_distance(Protocol protocol);

struct RibRoute {
  net::Ipv4Prefix prefix;
  Protocol protocol = Protocol::kConnected;
  uint8_t admin_distance = 0;
  uint32_t metric = 0;
  /// Next-hop address; may require recursive resolution (e.g. BGP routes
  /// whose next hop is a remote loopback reached via IS-IS).
  std::optional<net::Ipv4Address> next_hop;
  /// Egress interface; set for connected/IGP routes, absent for recursive.
  std::optional<net::InterfaceName> interface;
  bool drop = false;
  /// MPLS label pushed when forwarding via this route (TE tunnels).
  std::optional<uint32_t> push_label;
  /// Provenance for CLI output and targeted withdrawal (peer address,
  /// IGP instance, tunnel name...).
  std::string source;

  bool operator==(const RibRoute&) const = default;

  /// Identity for add/replace: two routes with equal key describe the same
  /// RIB slot and the newer one replaces the older.
  bool same_slot(const RibRoute& other) const {
    return prefix == other.prefix && protocol == other.protocol && source == other.source &&
           next_hop == other.next_hop && interface == other.interface;
  }
};

class Rib {
 public:
  Rib() = default;
  // Copying resets the lazily built presence trie instead of cloning it:
  // the trie is a pure cache over `routes_` and rebuilds on first LPM.
  // This is what makes a RIB (and hence a whole router) forkable for the
  // scenario engine. A copy carries the dirty set along with the routes
  // (a fork shares its base's installed FIB). Moves keep the trie (node
  // ownership transfers). Assignment replaces the contents wholesale, so
  // it leaves the RIB fully dirty.
  Rib(const Rib& other)
      : routes_(other.routes_),
        prefix_count_(other.prefix_count_),
        dirty_(other.dirty_),
        all_dirty_(other.all_dirty_),
        recursive_routes_(other.recursive_routes_) {}
  Rib& operator=(const Rib& other) {
    if (this != &other) {
      routes_ = other.routes_;
      prefix_count_ = other.prefix_count_;
      recursive_routes_ = other.recursive_routes_;
      trie_.clear();
      trie_valid_ = false;
      mark_all_dirty();
    }
    return *this;
  }
  Rib(Rib&&) = default;
  Rib& operator=(Rib&& other) {
    routes_ = std::move(other.routes_);
    prefix_count_ = other.prefix_count_;
    recursive_routes_ = other.recursive_routes_;
    trie_ = std::move(other.trie_);
    trie_valid_ = other.trie_valid_;
    mark_all_dirty();
    return *this;
  }

  /// Inserts or replaces (by slot identity). Returns true if the best-route
  /// set for the prefix changed.
  bool add(RibRoute route);

  /// Removes the route occupying the same slot. Returns true if the
  /// best-route set changed.
  bool remove(const RibRoute& route);

  /// Drops every route of `protocol` (optionally only those from `source`).
  /// Returns the number removed.
  size_t clear_protocol(Protocol protocol, const std::string& source = "");

  /// Replaces every route of (`protocol`, `source`) with `fresh`, as if by
  /// clear_protocol followed by add() of each route in order — but slots
  /// whose route set is already identical are left untouched (the presence
  /// trie survives when the prefix set is stable). Returns true only when
  /// something actually changed, giving SPF-style full reinstalls a precise
  /// signal for notify_rib_changed(). One merge-join pass over `fresh`
  /// (stably sorted by prefix) and the table.
  bool replace_protocol(Protocol protocol, const std::string& source,
                        std::vector<RibRoute> fresh);

  /// Best route set (ECMP) for an exact prefix; empty if none.
  std::vector<RibRoute> best(const net::Ipv4Prefix& prefix) const;

  /// All candidate routes for an exact prefix (for CLI display).
  std::vector<RibRoute> candidates(const net::Ipv4Prefix& prefix) const;

  /// Longest-prefix match returning the best set of the covering prefix.
  std::vector<RibRoute> longest_match(net::Ipv4Address destination) const;

  /// Visits the best set of every prefix.
  void for_each_best(
      const std::function<void(const net::Ipv4Prefix&, const std::vector<RibRoute>&)>& visit)
      const;

  size_t prefix_count() const { return prefix_count_; }
  size_t route_count() const { return routes_.size(); }

  // -- dirty tracking (delta FIB install, see update_fib) --
  //
  // The dirty set names the prefixes whose best set may have changed since
  // the FIB compiled from this RIB was last installed. Every mutator adds
  // to it; only mark_installed() clears it. A new or assigned RIB is fully
  // dirty: no installed table is known to match any part of it.

  bool fully_dirty() const { return all_dirty_; }
  /// Meaningful only while !fully_dirty().
  const std::set<net::Ipv4Prefix>& dirty() const { return dirty_; }
  /// Records that the table compiled from the current contents is installed.
  void mark_installed() {
    dirty_.clear();
    all_dirty_ = false;
  }
  /// Prefixes whose FIB entry may differ from the installed table's: the
  /// dirty set plus, when it is non-empty, every prefix holding a
  /// recursively resolved route (its resolution reads other prefixes).
  /// Sorted. Meaningful only while !fully_dirty().
  std::vector<net::Ipv4Prefix> stale_prefixes() const;

 private:
  using Slot = std::span<const RibRoute>;
  /// The routes of `prefix`: a contiguous run of routes_, empty if none.
  /// Its position is slot.data() - routes_.data().
  Slot slot(const net::Ipv4Prefix& prefix) const;
  /// End of the run starting at `begin`.
  size_t run_end(size_t begin) const;
  static std::vector<RibRoute> select_best(Slot routes);
  void rebuild_trie() const;
  /// Incremental trie upkeep on slot creation/removal: a valid trie stays
  /// valid across mutations (full rebuilds happen only after a copy).
  void prefix_added(const net::Ipv4Prefix& prefix);
  void prefix_removed(const net::Ipv4Prefix& prefix);
  void mark_dirty(const net::Ipv4Prefix& prefix) {
    if (!all_dirty_) dirty_.insert(prefix);
  }
  void mark_all_dirty() {
    dirty_.clear();
    all_dirty_ = true;
  }

  /// Every route, sorted by prefix; one prefix's routes (its slot) are a
  /// contiguous run in insertion order. One flat array keeps a copy (a
  /// fork) to one allocation and install passes sequential.
  std::vector<RibRoute> routes_;
  size_t prefix_count_ = 0;
  std::set<net::Ipv4Prefix> dirty_;
  bool all_dirty_ = true;
  /// Routes whose next hop resolves through other prefixes; zero spares
  /// stale_prefixes() its walk over the table.
  size_t recursive_routes_ = 0;
  mutable net::PrefixTrie<bool> trie_;  // presence trie for LPM
  mutable bool trie_valid_ = false;
};

/// One fully resolved forwarding action.
struct ResolvedNextHop {
  std::optional<net::Ipv4Address> next_hop;  // adjacent address; absent if attached
  net::InterfaceName interface;
  bool drop = false;
  std::optional<uint32_t> push_label;

  auto operator<=>(const ResolvedNextHop&) const = default;
};

/// Recursively resolves a route's next hop(s) against the RIB until routes
/// with explicit egress interfaces are reached. Returns empty if the next
/// hop is unresolvable (route stays out of the FIB).
std::vector<ResolvedNextHop> resolve(const Rib& rib, const RibRoute& route, int max_depth = 16);

/// Compiles the RIB into an AFT: best routes, recursive resolution,
/// ECMP groups, deduplicated next hops. Next hops and groups are numbered
/// canonically (see aft::Aft::renumber), so the table is a function of
/// the best sets alone.
aft::Aft compile_fib(const Rib& rib);

/// A FIB recompiled against the table currently installed from the RIB.
struct FibUpdate {
  /// Byte-identical to compile_fib(rib).
  aft::Aft fib;
  /// Best sets resolved to build it (the whole table on the full path).
  size_t entries_resolved = 0;
  /// The prefixes the delta path re-resolved; every other ipv4 entry was
  /// carried over from the installed table. Unset after a full compile.
  std::optional<std::vector<net::Ipv4Prefix>> patched;

  /// Forwarding equality with the installed table, compared only where the
  /// two can differ (plus label entries, which callers may append).
  bool forwards_like(const aft::Aft& installed) const;
};

/// Recompiles `rib` given `installed`, the table compiled from it at its
/// last mark_installed() (nullptr: none yet). Patches a copy of
/// `installed`, re-resolving only rib.stale_prefixes(), then renumbers.
/// Compiles in full instead when there is no installed table, the RIB is
/// fully dirty, most of it is stale anyway, or `installed` carries label
/// entries (they are appended after the ipv4 entries and cannot be
/// patched in place).
FibUpdate update_fib(const Rib& rib, const aft::Aft* installed);

}  // namespace mfv::rib

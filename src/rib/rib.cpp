#include "rib/rib.hpp"

#include <algorithm>
#include <set>

namespace mfv::rib {

std::string protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return "CONNECTED";
    case Protocol::kLocal: return "LOCAL";
    case Protocol::kStatic: return "STATIC";
    case Protocol::kGribi: return "GRIBI";
    case Protocol::kOspf: return "OSPF";
    case Protocol::kIsis: return "ISIS";
    case Protocol::kBgp: return "BGP";
    case Protocol::kIbgp: return "IBGP";
    case Protocol::kTe: return "TE";
  }
  return "UNKNOWN";
}

uint8_t default_admin_distance(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return 0;
    case Protocol::kLocal: return 0;
    case Protocol::kStatic: return 1;
    case Protocol::kGribi: return 5;
    case Protocol::kTe: return 2;
    case Protocol::kBgp: return 20;
    case Protocol::kOspf: return 110;
    case Protocol::kIsis: return 115;
    case Protocol::kIbgp: return 200;
  }
  return 255;
}

namespace {

/// True when the route's forwarding depends on other prefixes: it names a
/// next hop but no egress interface (BGP, recursive static, gRIBI).
bool resolves_recursively(const RibRoute& route) {
  return !route.drop && !route.interface && route.next_hop;
}

size_t count_recursive(std::vector<RibRoute>::const_iterator first,
                       std::vector<RibRoute>::const_iterator last) {
  return static_cast<size_t>(std::count_if(first, last, resolves_recursively));
}

}  // namespace

void Rib::prefix_added(const net::Ipv4Prefix& prefix) {
  // Keep a valid trie valid: one insert beats a full rebuild on the next
  // longest_match (SPF/BGP churn interleaves mutation with LPM lookups).
  if (trie_valid_) trie_.insert(prefix, true);
}

void Rib::prefix_removed(const net::Ipv4Prefix& prefix) {
  if (trie_valid_) trie_.erase(prefix);
}

Rib::Slot Rib::slot(const net::Ipv4Prefix& prefix) const {
  auto first = std::partition_point(routes_.begin(), routes_.end(),
                                    [&](const RibRoute& r) { return r.prefix < prefix; });
  auto last = std::partition_point(first, routes_.end(),
                                   [&](const RibRoute& r) { return r.prefix == prefix; });
  return Slot(routes_.data() + (first - routes_.begin()), static_cast<size_t>(last - first));
}

size_t Rib::run_end(size_t begin) const {
  size_t end = begin;
  while (end < routes_.size() && routes_[end].prefix == routes_[begin].prefix) ++end;
  return end;
}

bool Rib::add(RibRoute route) {
  const net::Ipv4Prefix prefix = route.prefix;
  Slot current = slot(prefix);
  const size_t begin = static_cast<size_t>(current.data() - routes_.data());
  std::vector<RibRoute> before = select_best(current);
  if (current.empty()) {
    prefix_added(prefix);
    ++prefix_count_;
  }
  recursive_routes_ += resolves_recursively(route);
  auto existing = std::find_if(current.begin(), current.end(),
                               [&](const RibRoute& r) { return r.same_slot(route); });
  size_t size = current.size();
  if (existing != current.end()) {
    RibRoute& target = routes_[begin + static_cast<size_t>(existing - current.begin())];
    recursive_routes_ -= resolves_recursively(target);
    target = std::move(route);
  } else {
    routes_.insert(routes_.begin() + static_cast<std::ptrdiff_t>(begin + size),
                   std::move(route));
    ++size;
  }
  bool changed = select_best(Slot(routes_.data() + begin, size)) != before;
  if (changed) mark_dirty(prefix);
  return changed;
}

bool Rib::remove(const RibRoute& route) {
  Slot current = slot(route.prefix);
  if (current.empty()) return false;
  std::vector<RibRoute> before = select_best(current);
  const size_t begin = static_cast<size_t>(current.data() - routes_.data());
  auto first = routes_.begin() + static_cast<std::ptrdiff_t>(begin);
  auto last = first + static_cast<std::ptrdiff_t>(current.size());
  auto removed = std::remove_if(first, last, [&](const RibRoute& r) { return r.same_slot(route); });
  if (removed == last) return false;
  const size_t kept = static_cast<size_t>(removed - first);
  recursive_routes_ -= count_recursive(removed, last);
  routes_.erase(removed, last);
  if (kept == 0) {
    prefix_removed(route.prefix);
    --prefix_count_;
  }
  bool changed = select_best(Slot(routes_.data() + begin, kept)) != before;
  if (changed) mark_dirty(route.prefix);
  return changed;
}

size_t Rib::clear_protocol(Protocol protocol, const std::string& source) {
  // One stable compaction pass; a slot that loses routes is dirty.
  size_t out = 0;
  for (size_t begin = 0; begin < routes_.size();) {
    const size_t end = run_end(begin);
    const net::Ipv4Prefix prefix = routes_[begin].prefix;
    const size_t kept = out;
    for (size_t i = begin; i < end; ++i) {
      RibRoute& route = routes_[i];
      if (route.protocol == protocol && (source.empty() || route.source == source)) {
        recursive_routes_ -= resolves_recursively(route);
        continue;
      }
      if (out != i) routes_[out] = std::move(route);
      ++out;
    }
    if (out - kept != end - begin) {
      mark_dirty(prefix);
      if (out == kept) {
        prefix_removed(prefix);
        --prefix_count_;
      }
    }
    begin = end;
  }
  const size_t removed = routes_.size() - out;
  routes_.erase(routes_.begin() + static_cast<std::ptrdiff_t>(out), routes_.end());
  return removed;
}

bool Rib::replace_protocol(Protocol protocol, const std::string& source,
                           std::vector<RibRoute> fresh) {
  // Visit `fresh` stably sorted by prefix through (prefix, index) integer
  // keys: sorting the routes themselves would move every one of them.
  auto key = [](const net::Ipv4Prefix& prefix) {
    return uint64_t{prefix.address().bits()} << 8 | prefix.length();
  };
  std::vector<std::pair<uint64_t, uint32_t>> order;
  order.reserve(fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i)
    order.emplace_back(key(fresh[i].prefix), static_cast<uint32_t>(i));
  std::sort(order.begin(), order.end());
  auto matches = [&](const RibRoute& r) {
    return r.protocol == protocol && (source.empty() || r.source == source);
  };

  // Pass 1, a merge-join of `order` with the slots: find the slots whose
  // routes of this protocol must change. `wanted` holds each prefix's
  // incoming routes as indices into `fresh`, under add()'s same-slot rule
  // (a later route takes over an earlier one's position).
  struct Edit {
    size_t begin, end;  // the slot's run; begin == end: a new slot there
    size_t want_begin, want_end;
  };
  std::vector<Edit> edits;
  std::vector<uint32_t> wanted;
  // A slot is unchanged when it already holds exactly the wanted routes
  // (in any order; neither side repeats a route).
  auto same = [&](size_t begin, size_t end, size_t want_begin) {
    size_t current = static_cast<size_t>(
        std::count_if(routes_.begin() + static_cast<std::ptrdiff_t>(begin),
                      routes_.begin() + static_cast<std::ptrdiff_t>(end), matches));
    if (current != wanted.size() - want_begin) return false;
    for (size_t w = want_begin; w < wanted.size(); ++w) {
      bool found = false;
      for (size_t i = begin; i < end && !found; ++i)
        found = matches(routes_[i]) && routes_[i] == fresh[wanted[w]];
      if (!found) return false;
    }
    return true;
  };
  for (size_t i = 0, r = 0; i < order.size() || r < routes_.size();) {
    const size_t want_begin = wanted.size();
    if (i == order.size() || (r < routes_.size() && key(routes_[r].prefix) < order[i].first)) {
      const size_t end = run_end(r);  // prefix absent from `fresh`
      if (!same(r, end, want_begin)) edits.push_back({r, end, want_begin, want_begin});
      r = end;
      continue;
    }
    const net::Ipv4Prefix prefix = fresh[order[i].second].prefix;
    for (; i < order.size() && fresh[order[i].second].prefix == prefix; ++i) {
      const uint32_t index = order[i].second;
      auto earlier = std::find_if(wanted.begin() + static_cast<std::ptrdiff_t>(want_begin),
                                  wanted.end(), [&](uint32_t w) {
                                    return fresh[w].same_slot(fresh[index]);
                                  });
      if (earlier != wanted.end())
        *earlier = index;
      else
        wanted.push_back(index);
    }
    const size_t end = r < routes_.size() && routes_[r].prefix == prefix ? run_end(r) : r;
    if (end == r || !same(r, end, want_begin)) edits.push_back({r, end, want_begin, wanted.size()});
    r = end;
  }
  if (edits.empty()) return false;

  // Pass 2: rebuild the array, moving untouched runs across whole.
  size_t incoming = 0;
  for (const Edit& edit : edits) incoming += edit.want_end - edit.want_begin;
  std::vector<RibRoute> merged;
  merged.reserve(routes_.size() + incoming);
  auto move_range = [&](size_t begin, size_t end) {
    merged.insert(merged.end(),
                  std::make_move_iterator(routes_.begin() + static_cast<std::ptrdiff_t>(begin)),
                  std::make_move_iterator(routes_.begin() + static_cast<std::ptrdiff_t>(end)));
  };
  size_t cursor = 0;
  for (const Edit& edit : edits) {
    move_range(cursor, edit.begin);
    cursor = edit.end;
    const net::Ipv4Prefix prefix =
        edit.begin < edit.end ? routes_[edit.begin].prefix : fresh[wanted[edit.want_begin]].prefix;
    const size_t slot_begin = merged.size();
    for (size_t i = edit.begin; i < edit.end; ++i) {
      if (matches(routes_[i]))
        recursive_routes_ -= resolves_recursively(routes_[i]);
      else
        merged.push_back(std::move(routes_[i]));
    }
    for (size_t w = edit.want_begin; w < edit.want_end; ++w) {
      recursive_routes_ += resolves_recursively(fresh[wanted[w]]);
      merged.push_back(std::move(fresh[wanted[w]]));
    }
    mark_dirty(prefix);
    const bool existed = edit.begin < edit.end;
    const bool exists = merged.size() > slot_begin;
    if (!existed && exists) {
      prefix_added(prefix);
      ++prefix_count_;
    } else if (existed && !exists) {
      prefix_removed(prefix);
      --prefix_count_;
    }
  }
  move_range(cursor, routes_.size());
  routes_ = std::move(merged);
  return true;
}

std::vector<net::Ipv4Prefix> Rib::stale_prefixes() const {
  std::vector<net::Ipv4Prefix> stale(dirty_.begin(), dirty_.end());
  if (stale.empty() || recursive_routes_ == 0) return stale;
  std::vector<net::Ipv4Prefix> recursive;
  for (const RibRoute& route : routes_)
    if (resolves_recursively(route) && (recursive.empty() || recursive.back() != route.prefix))
      recursive.push_back(route.prefix);
  std::vector<net::Ipv4Prefix> merged;
  merged.reserve(stale.size() + recursive.size());
  std::set_union(stale.begin(), stale.end(), recursive.begin(), recursive.end(),
                 std::back_inserter(merged));
  return merged;
}

std::vector<RibRoute> Rib::select_best(Slot routes) {
  if (routes.empty()) return {};
  uint8_t best_distance = 255;
  uint32_t best_metric = UINT32_MAX;
  for (const auto& route : routes) {
    if (route.admin_distance < best_distance ||
        (route.admin_distance == best_distance && route.metric < best_metric)) {
      best_distance = route.admin_distance;
      best_metric = route.metric;
    }
  }
  std::vector<RibRoute> best;
  for (const auto& route : routes)
    if (route.admin_distance == best_distance && route.metric == best_metric)
      best.push_back(route);
  return best;
}

std::vector<RibRoute> Rib::best(const net::Ipv4Prefix& prefix) const {
  return select_best(slot(prefix));
}

std::vector<RibRoute> Rib::candidates(const net::Ipv4Prefix& prefix) const {
  Slot routes = slot(prefix);
  return {routes.begin(), routes.end()};
}

void Rib::rebuild_trie() const {
  trie_.clear();
  for (size_t begin = 0; begin < routes_.size(); begin = run_end(begin))
    trie_.insert(routes_[begin].prefix, true);
  trie_valid_ = true;
}

std::vector<RibRoute> Rib::longest_match(net::Ipv4Address destination) const {
  if (!trie_valid_) rebuild_trie();
  auto match = trie_.longest_match(destination);
  if (!match) return {};
  return best(match->first);
}

void Rib::for_each_best(
    const std::function<void(const net::Ipv4Prefix&, const std::vector<RibRoute>&)>& visit)
    const {
  for (size_t begin = 0; begin < routes_.size();) {
    const size_t end = run_end(begin);
    auto best_set = select_best(Slot(routes_.data() + begin, end - begin));
    if (!best_set.empty()) visit(routes_[begin].prefix, best_set);
    begin = end;
  }
}

namespace {

void resolve_into(const Rib& rib, const RibRoute& route, int depth,
                  std::vector<ResolvedNextHop>& out) {
  if (depth <= 0) return;  // resolution loop or chain too deep
  if (route.drop) {
    out.push_back(ResolvedNextHop{std::nullopt, "", true, route.push_label});
    return;
  }
  if (route.interface) {
    // Directly resolvable: either attached (connected subnet, no next-hop
    // address) or adjacent (IGP route carrying both).
    out.push_back(ResolvedNextHop{route.next_hop, *route.interface, false, route.push_label});
    return;
  }
  if (!route.next_hop) return;  // malformed: nothing to resolve through
  // Recursive: look up the next hop itself.
  for (const RibRoute& via : rib.longest_match(*route.next_hop)) {
    // Self-referential match (e.g. a BGP route resolving through itself)
    // must not recurse forever; the covering route must be different.
    if (via.prefix == route.prefix && via.protocol == route.protocol &&
        via.next_hop == route.next_hop)
      continue;
    if (via.interface && via.protocol == Protocol::kConnected) {
      // Attached subnet: the original next hop is directly adjacent.
      out.push_back(
          ResolvedNextHop{route.next_hop, *via.interface, false, route.push_label});
    } else {
      size_t before = out.size();
      resolve_into(rib, via, depth - 1, out);
      // Labels from the outer route win (TE-over-IGP); copy onto new hops.
      if (route.push_label) {
        for (size_t i = before; i < out.size(); ++i)
          if (!out[i].push_label) out[i].push_label = route.push_label;
      }
    }
  }
}

}  // namespace

std::vector<ResolvedNextHop> resolve(const Rib& rib, const RibRoute& route, int max_depth) {
  std::vector<ResolvedNextHop> out;
  resolve_into(rib, route, max_depth, out);
  // Deduplicate (multiple candidate paths can resolve identically).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Emits FIB entries for best sets into `fib`, interning the next hops and
/// groups it adds in first-appearance order. Fed every prefix in order (a
/// full compile), that numbering is canonical; fed the stale prefixes of
/// an installed table, the table needs Aft::renumber() afterwards.
class FibBuilder {
 public:
  FibBuilder(const Rib& rib, aft::Aft& fib) : rib_(rib), fib_(fib) {}

  /// Sets (or, when `best` resolves to nothing, erases) the entry of
  /// `prefix`.
  void emit(const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    ++resolved_;
    std::optional<MemoKey> fast_key;
    if (best.size() == 1) {
      fast_key = memo_key(best.front());
      if (fast_key) {
        auto it = group_memo_.find(*fast_key);
        if (it != group_memo_.end()) {
          set_entry(prefix, best.front(), it->second);
          return;
        }
      }
    }

    std::set<ResolvedNextHop> resolved;
    for (const RibRoute& route : best)
      for (const ResolvedNextHop& hop : resolve_route(route)) resolved.insert(hop);
    if (resolved.empty()) {  // unresolvable: not programmed
      if (fast_key) group_memo_.emplace(*fast_key, 0);
      set_entry(prefix, RibRoute{}, 0);
      return;
    }

    std::vector<uint64_t> indices;
    for (const ResolvedNextHop& hop : resolved) {
      auto it = next_hop_index_.find(hop);
      if (it == next_hop_index_.end()) {
        aft::NextHop nh;
        nh.ip_address = hop.next_hop;
        if (!hop.interface.empty()) nh.interface = hop.interface;
        nh.drop = hop.drop;
        if (hop.push_label) {
          nh.label_op = aft::LabelOp::kPush;
          nh.label = *hop.push_label;
        }
        it = next_hop_index_.emplace(hop, fib_.add_next_hop(nh)).first;
      }
      indices.push_back(it->second);
    }
    std::sort(indices.begin(), indices.end());

    auto group_it = group_index_.find(indices);
    if (group_it == group_index_.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> weighted;
      for (uint64_t index : indices) weighted.emplace_back(index, 1);
      group_it = group_index_.emplace(indices, fib_.add_group(std::move(weighted))).first;
    }
    if (fast_key) group_memo_.emplace(*fast_key, group_it->second);
    set_entry(prefix, best.front(), group_it->second);
  }

  size_t resolved() const { return resolved_; }

 private:
  using MemoKey = std::pair<net::Ipv4Address, std::optional<uint32_t>>;

  /// A route with neither interface nor drop resolves purely as a function
  /// of (next hop, pushed label) — the prefix only matters through
  /// resolve_into's self-referential guard, which can fire only when the
  /// route's own prefix covers its next hop. Full-table workloads resolve
  /// thousands of BGP prefixes through a handful of next hops, so keying
  /// on it collapses the dominant compile cost.
  static std::optional<MemoKey> memo_key(const RibRoute& route) {
    bool memoizable = route.next_hop && !route.interface && !route.drop &&
                      !route.prefix.contains(*route.next_hop);
    if (!memoizable) return std::nullopt;
    return std::make_pair(*route.next_hop, route.push_label);
  }

  const std::vector<ResolvedNextHop>& resolve_route(const RibRoute& route) {
    auto key = memo_key(route);
    if (!key) return scratch_ = resolve(rib_, route);
    auto it = recursive_memo_.find(*key);
    if (it == recursive_memo_.end()) it = recursive_memo_.emplace(*key, resolve(rib_, route)).first;
    return it->second;
  }

  /// Group 0 = resolves to nothing: the prefix gets no entry.
  void set_entry(const net::Ipv4Prefix& prefix, const RibRoute& front, uint64_t group) {
    if (group == 0) {
      fib_.erase_ipv4_entry(prefix);
      return;
    }
    aft::Ipv4Entry entry;
    entry.prefix = prefix;
    entry.next_hop_group = group;
    entry.origin_protocol = protocol_name(front.protocol);
    entry.metric = front.metric;
    fib_.set_ipv4_entry(std::move(entry));
  }

  const Rib& rib_;
  aft::Aft& fib_;
  size_t resolved_ = 0;
  // Deduplicate next hops and groups across entries.
  std::map<ResolvedNextHop, uint64_t> next_hop_index_;
  std::map<std::vector<uint64_t>, uint64_t> group_index_;
  std::map<MemoKey, std::vector<ResolvedNextHop>> recursive_memo_;
  std::vector<ResolvedNextHop> scratch_;
  // Second-level memo: (next hop, label) straight to the group id (0 =
  // resolves to nothing). Once one single-path prefix through a next hop
  // has been compiled, its siblings skip the per-hop dedup entirely. Pure
  // shortcut: a hit means the identical resolved set was already interned,
  // so the slow path would have created no new next hops or groups.
  std::map<MemoKey, uint64_t> group_memo_;
};

FibUpdate compile_full(const Rib& rib) {
  FibUpdate update;
  FibBuilder builder(rib, update.fib);
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    builder.emit(prefix, best);
  });
  update.entries_resolved = builder.resolved();
  return update;
}

}  // namespace

aft::Aft compile_fib(const Rib& rib) { return compile_full(rib).fib; }

bool FibUpdate::forwards_like(const aft::Aft& installed) const {
  return patched ? fib.forwarding_equal(installed, *patched) : fib.forwarding_equal(installed);
}

FibUpdate update_fib(const Rib& rib, const aft::Aft* installed) {
  if (installed == nullptr || rib.fully_dirty() || !installed->label_entries().empty())
    return compile_full(rib);
  std::vector<net::Ipv4Prefix> stale = rib.stale_prefixes();
  // Past half the table, patching plus renumbering costs more than the
  // full compile it reproduces.
  if (stale.size() * 2 > rib.prefix_count()) return compile_full(rib);
  FibUpdate update;
  update.fib = *installed;
  if (!stale.empty()) {
    FibBuilder builder(rib, update.fib);
    for (const net::Ipv4Prefix& prefix : stale) builder.emit(prefix, rib.best(prefix));
    update.fib.renumber();
    update.entries_resolved = builder.resolved();
  }
  update.patched = std::move(stale);
  return update;
}

}  // namespace mfv::rib

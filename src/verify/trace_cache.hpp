// Per-snapshot memoization of trace continuations.
//
// Forwarding of a packet is a function of (current device, packet class)
// only — never of how the packet got there. The legacy engine ignores
// this and re-walks the forwarding graph for every (source x class) pair,
// an O(S*C*pathlen) sweep. TraceCache instead computes, per class, the
// disposition set of *every* node in one depth-first pass over the
// forwarding graph (memoizing each node's continuation), then serves all
// S sources from that table: the S x C trace matrix becomes C
// dynamic-programming passes — an algorithmic win independent of
// threading.
//
// Semantics match the legacy per-flow walker (trace.cpp) exactly, with
// two documented exceptions, both unreachable in realistic snapshots:
//   * path-enumeration truncation (TraceOptions.max_paths) can make the
//     legacy walker *miss* dispositions on flows with > max_paths ECMP
//     branches; the cache always reports the untruncated union;
//   * a simple path longer than max_hops is reported as a loop by the
//     legacy walker and by its true disposition here.
// Loop detection is node-based, like the walker's visited set: a flow
// revisiting a device in *any* label state is a loop. Continuations whose
// loop verdict depends on the path taken (a node revisited in a different
// MPLS label state without a state-graph cycle) are computed per entry
// path and never memoized, so the table stays context-free.
//
// Class tables are flat: one disposition set per NodeId, published once
// fully solved. From then on a read takes no lock — the class lookup is a
// lock-free chained hash and the table itself never changes again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "verify/disposition.hpp"
#include "verify/forwarding_graph.hpp"

namespace mfv::verify {

class TraceCache {
 public:
  /// A fully solved class table: the disposition set of the flow injected
  /// at each node, indexed by NodeId. Immutable once published.
  class Table {
   public:
    const DispositionSet& at(NodeId node) const { return sets_[node]; }

   private:
    friend class TraceCache;
    std::vector<DispositionSet> sets_;
  };

  /// `metrics`, when set, mirrors hits/misses/re-expansions into the
  /// trace_cache_* counter family; the local atomics stay authoritative
  /// for the accessors below either way.
  explicit TraceCache(const ForwardingGraph& graph,
                      obs::MetricsRegistry* metrics = nullptr);
  ~TraceCache();
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// The solved table of `destination`'s class (any address of a packet
  /// class, typically its representative), computed on first use. Counts
  /// a miss when this call ran the solver and a hit otherwise, plus
  /// `reads` further hits for the cells the caller reads from the table —
  /// so a sweep reading a column through one table() call is accounted
  /// exactly like one dispositions() call per cell.
  const Table& table(net::Ipv4Address destination, uint64_t reads = 0);

  /// Disposition set of the flow injected at `source` destined to
  /// `destination`. An unknown source reports NO_ROUTE, like trace_flow.
  DispositionSet dispositions(const net::NodeName& source,
                              net::Ipv4Address destination);

  /// Precomputes the table for `destination`'s class (idempotent).
  void warm(net::Ipv4Address destination) { table(destination); }

  /// Partial solve: dispositions for `sources` only (returned in order),
  /// computing just those roots and the continuations they reach instead
  /// of the whole node table. The incremental splicer uses this when a
  /// dirty column needs a handful of re-traced cells — paying the full
  /// solve's O(nodes) there would erase the splice win. Memoized entries
  /// stay with the class, so a later table() completes the remaining
  /// roots without repeating work. kNoNode sources report NO_ROUTE.
  std::vector<DispositionSet> dispositions_for(const std::vector<NodeId>& sources,
                                               net::Ipv4Address destination);

  /// Number of distinct destination classes resolved so far.
  size_t classes_cached() const { return classes_.load(std::memory_order_relaxed); }

  /// Observability for long-lived caches (the service's per-snapshot
  /// caches): a hit is a lookup that found the class table already
  /// solved, a miss is one that ran the solver. hits/(hits+misses) is the
  /// memoization rate across every request served from this cache.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Memoized continuations found but re-expanded in context because a
  /// footprint node was already on the caller's path (see ClassSolver).
  uint64_t reexpansions() const {
    return reexpansions_.load(std::memory_order_relaxed);
  }

  /// Thread-safety: concurrent calls are safe for any mix of
  /// destinations; each class table is computed exactly once (callers
  /// sharding by class never contend).

 private:
  struct ClassSlot;

  ClassSlot& slot_for(net::Ipv4Address destination);
  void count(bool solved_here, uint64_t reads);

  const ForwardingGraph& graph_;
  /// Buckets of singly linked slot chains. Slots are pushed with a CAS
  /// and never unlinked until destruction, so lookups take no lock.
  std::unique_ptr<std::atomic<ClassSlot*>[]> buckets_;
  size_t bucket_mask_ = 0;
  std::atomic<size_t> classes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> reexpansions_{0};
  /// Optional registry mirrors (null when no registry was injected).
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* reexpansions_counter_ = nullptr;
};

}  // namespace mfv::verify

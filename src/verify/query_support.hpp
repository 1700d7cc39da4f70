// Option resolution and cache plumbing shared by the cold query sweeps
// (queries.cpp) and the incremental splicer (incremental/splicer.cpp).
// One definition for both: the splice is byte-identical to the cold sweep
// only while both resolve sources, classes and threads the same way.
#pragma once

#include <memory>
#include <vector>

#include "util/thread_pool.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::verify {

inline std::vector<net::NodeName> resolve_sources(const ForwardingGraph& graph,
                                                  const QueryOptions& options) {
  if (!options.sources.empty()) return options.sources;
  return graph.nodes();
}

inline std::vector<PacketClass> classes_for(const std::vector<net::Ipv4Prefix>& prefixes,
                                            const QueryOptions& options) {
  if (options.scope) return compute_packet_classes(prefixes, *options.scope);
  return compute_packet_classes(prefixes);
}

inline unsigned resolve_threads(const QueryOptions& options) {
  if (options.threads != 0) return options.threads;
  return util::ThreadPool::default_threads();
}

inline bool row_passes(const QueryOptions& options, const DispositionSet& dispositions) {
  return options.row_filter.empty() || dispositions.intersects(options.row_filter);
}

/// The memoization a query sweep uses: the caller's long-lived cache when
/// provided (service / session path), else a fresh query-local one.
class CacheRef {
 public:
  CacheRef(TraceCache* shared, const ForwardingGraph& graph,
           obs::MetricsRegistry* metrics) {
    if (shared == nullptr) local_ = std::make_unique<TraceCache>(graph, metrics);
    cache_ = shared != nullptr ? shared : local_.get();
  }
  TraceCache& operator*() { return *cache_; }

 private:
  std::unique_ptr<TraceCache> local_;
  TraceCache* cache_ = nullptr;
};

/// A query's source list resolved to one graph's NodeIds, for reading
/// cells straight out of TraceCache tables. Unknown sources read NO_ROUTE,
/// like trace_flow, and are not counted as cache reads.
struct SourceIds {
  SourceIds(const ForwardingGraph& graph, const std::vector<net::NodeName>& sources) {
    node.reserve(sources.size());
    for (const net::NodeName& source : sources) {
      node.push_back(graph.id_of(source));
      if (node.back() != kNoNode) ++known;
    }
  }
  DispositionSet read(const TraceCache::Table& table, size_t s) const {
    if (node[s] != kNoNode) return table.at(node[s]);
    DispositionSet no_route;
    no_route.add(Disposition::kNoRoute);
    return no_route;
  }

  /// NodeId of source s (kNoNode when the graph lacks it).
  std::vector<NodeId> node;
  /// Sources the graph has.
  size_t known = 0;
};

}  // namespace mfv::verify

#include "verify/queries.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::verify {

namespace {

std::vector<net::NodeName> resolve_sources(const ForwardingGraph& graph,
                                           const QueryOptions& options) {
  if (!options.sources.empty()) return options.sources;
  return graph.nodes();
}

std::vector<PacketClass> classes_for(const std::vector<net::Ipv4Prefix>& prefixes,
                                     const QueryOptions& options) {
  if (options.scope) return compute_packet_classes(prefixes, *options.scope);
  return compute_packet_classes(prefixes);
}

unsigned resolve_threads(const QueryOptions& options) {
  if (options.threads != 0) return options.threads;
  return util::ThreadPool::default_threads();
}

bool row_passes(const QueryOptions& options, const DispositionSet& dispositions) {
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

/// Resolves the per-shard latency histogram once per sweep (nullptr when
/// no registry is attached) and times one shard around a callable.
obs::Histogram* shard_latency_histogram(const QueryOptions& options) {
  if (options.metrics == nullptr) return nullptr;
  return &options.metrics->latency_histogram_us("verify_shard_latency_us");
}

template <typename Fn>
void timed_shard(obs::Histogram* histogram, Fn&& fn) {
  if (histogram == nullptr) {
    fn();
    return;
  }
  auto start = std::chrono::steady_clock::now();
  fn();
  histogram->observe(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
}

}  // namespace

ReachabilityResult reachability(const ForwardingGraph& graph, const QueryOptions& options) {
  ReachabilityResult result;
  std::vector<PacketClass> classes = classes_for(graph.relevant_prefixes(), options);
  std::vector<net::NodeName> sources = resolve_sources(graph, options);
  result.classes = classes.size();

  unsigned threads = resolve_threads(options);
  const bool cached = options.engine == EngineMode::kCached;
  if (!cached && threads <= 1) {
    // Legacy serial engine: one full walk per (source, class), bit-identical
    // to the seed implementation (including path-truncation behavior).
    for (const net::NodeName& source : sources) {
      for (const PacketClass& cls : classes) {
        TraceResult trace = trace_flow(graph, source, cls.representative(), options.trace);
        ++result.flows;
        if (!row_passes(options, trace.dispositions)) continue;
        result.rows.push_back({source, cls, trace.dispositions});
      }
    }
    return result;
  }

  // Sharded engine: one shard per packet class. Each shard resolves its
  // class once (memoized per-node table when the cache is on) and fills a
  // shard-indexed slice of the disposition matrix, so row content and
  // order never depend on the worker count.
  const size_t class_count = classes.size();
  std::vector<DispositionSet> matrix(sources.size() * class_count);
  CacheRef cache(options.cache, graph, options.metrics);
  SourceIds ids(graph, sources);
  obs::Histogram* shard_latency = shard_latency_histogram(options);
  util::parallel_for_shards(threads, class_count, [&](size_t c) {
    timed_shard(shard_latency, [&] {
      net::Ipv4Address representative = classes[c].representative();
      if (cached) {
        const TraceCache::Table& table = (*cache).table(representative, ids.known);
        for (size_t s = 0; s < sources.size(); ++s)
          matrix[s * class_count + c] = ids.read(table, s);
        return;
      }
      for (size_t s = 0; s < sources.size(); ++s)
        matrix[s * class_count + c] =
            trace_flow(graph, sources[s], representative, options.trace).dispositions;
    });
  });

  result.flows = sources.size() * class_count;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t c = 0; c < class_count; ++c) {
      const DispositionSet& dispositions = matrix[s * class_count + c];
      if (!row_passes(options, dispositions)) continue;
      result.rows.push_back({sources[s], classes[c], dispositions});
    }
  }
  return result;
}

std::string DifferentialRow::to_string() const {
  return source + " -> " + destination.to_string() + ": base=" + base.to_string() +
         " candidate=" + candidate.to_string();
}

std::vector<DifferentialRow> DifferentialResult::regressions() const {
  std::vector<DifferentialRow> out;
  for (const DifferentialRow& row : rows)
    if (row.base.all_success() && row.candidate.any_failure()) out.push_back(row);
  return out;
}

DifferentialResult differential_reachability(const ForwardingGraph& base,
                                             const ForwardingGraph& candidate,
                                             const QueryOptions& options) {
  DifferentialResult result;

  // Classes must be computed over the union of both snapshots' prefixes so
  // a boundary present in only one side still splits the space. Computed
  // once here — base and candidate then share one TraceCache pair across
  // every flow instead of re-deriving per-flow state.
  std::vector<net::Ipv4Prefix> prefixes = base.relevant_prefixes();
  std::vector<net::Ipv4Prefix> candidate_prefixes = candidate.relevant_prefixes();
  prefixes.insert(prefixes.end(), candidate_prefixes.begin(), candidate_prefixes.end());
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());

  std::vector<PacketClass> classes = classes_for(prefixes, options);
  result.classes = classes.size();

  // Sources: union of both snapshots' devices (or the explicit list).
  std::vector<net::NodeName> sources;
  if (!options.sources.empty()) {
    sources = options.sources;
  } else {
    std::set<net::NodeName> all;
    for (const net::NodeName& node : base.nodes()) all.insert(node);
    for (const net::NodeName& node : candidate.nodes()) all.insert(node);
    sources.assign(all.begin(), all.end());
  }

  unsigned threads = resolve_threads(options);
  const bool cached = options.engine == EngineMode::kCached;
  if (!cached && threads <= 1) {
    for (const net::NodeName& source : sources) {
      for (const PacketClass& cls : classes) {
        TraceResult base_trace = trace_flow(base, source, cls.representative(), options.trace);
        TraceResult candidate_trace =
            trace_flow(candidate, source, cls.representative(), options.trace);
        ++result.flows;
        if (base_trace.dispositions == candidate_trace.dispositions) continue;
        result.rows.push_back(
            {source, cls, base_trace.dispositions, candidate_trace.dispositions});
      }
    }
    return result;
  }

  const size_t class_count = classes.size();
  CacheRef base_cache(options.cache, base, options.metrics);
  CacheRef candidate_cache(options.candidate_cache, candidate, options.metrics);
  SourceIds base_ids(base, sources);
  SourceIds candidate_ids(candidate, sources);
  obs::Histogram* shard_latency = shard_latency_histogram(options);
  // Cell (s, c): the two disposition sets plus a differ flag; only
  // differing cells become rows, in source-major order like the legacy
  // engine.
  std::vector<DispositionSet> base_matrix(sources.size() * class_count);
  std::vector<DispositionSet> candidate_matrix(sources.size() * class_count);
  std::vector<uint8_t> differs(sources.size() * class_count, 0);
  util::parallel_for_shards(threads, class_count, [&](size_t c) {
    timed_shard(shard_latency, [&] {
      net::Ipv4Address representative = classes[c].representative();
      const TraceCache::Table* base_table = nullptr;
      const TraceCache::Table* candidate_table = nullptr;
      if (cached) {
        base_table = &(*base_cache).table(representative, base_ids.known);
        candidate_table = &(*candidate_cache).table(representative, candidate_ids.known);
      }
      for (size_t s = 0; s < sources.size(); ++s) {
        size_t cell = s * class_count + c;
        if (cached) {
          base_matrix[cell] = base_ids.read(*base_table, s);
          candidate_matrix[cell] = candidate_ids.read(*candidate_table, s);
        } else {
          base_matrix[cell] =
              trace_flow(base, sources[s], representative, options.trace).dispositions;
          candidate_matrix[cell] =
              trace_flow(candidate, sources[s], representative, options.trace)
                  .dispositions;
        }
        differs[cell] = base_matrix[cell] == candidate_matrix[cell] ? 0 : 1;
      }
    });
  });

  result.flows = sources.size() * class_count;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t c = 0; c < class_count; ++c) {
      size_t cell = s * class_count + c;
      if (!differs[cell]) continue;
      result.rows.push_back(
          {sources[s], classes[c], base_matrix[cell], candidate_matrix[cell]});
    }
  }
  return result;
}

std::string RouteRow::to_string() const {
  std::string out = node + " " + prefix.to_string() + " " + protocol + "/" +
                    std::to_string(metric) + " ->";
  for (const std::string& hop : next_hops) out += " " + hop;
  return out;
}

std::vector<RouteRow> routes(const ForwardingGraph& graph, const net::NodeName& node) {
  std::vector<RouteRow> rows;
  for (const auto& [name, device] : graph.snapshot().devices) {
    if (!node.empty() && name != node) continue;
    for (const auto& [prefix, entry] : device.aft.ipv4_entries()) {
      RouteRow row;
      row.node = name;
      row.prefix = prefix;
      row.protocol = entry.origin_protocol;
      row.metric = entry.metric;
      for (const aft::NextHop& hop : graph.next_hops(name, entry)) {
        if (hop.drop) {
          row.next_hops.push_back("drop");
          continue;
        }
        std::string rendered;
        if (hop.ip_address) rendered = hop.ip_address->to_string();
        if (hop.interface)
          rendered += (rendered.empty() ? "via " : " via ") + *hop.interface;
        if (hop.label_op == aft::LabelOp::kPush)
          rendered += " push " + std::to_string(hop.label);
        row.next_hops.push_back(rendered.empty() ? "attached" : rendered);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

ReachabilityResult detect_loops(const ForwardingGraph& graph, const QueryOptions& options) {
  // Push the loop filter into the query sweep: non-loop rows are never
  // materialized instead of being built and thrown away.
  QueryOptions loop_options = options;
  loop_options.row_filter = DispositionSet();
  loop_options.row_filter.add(Disposition::kLoop);
  return reachability(graph, loop_options);
}

std::optional<net::Ipv4Address> device_loopback(const gnmi::Snapshot& snapshot,
                                                const net::NodeName& node) {
  auto it = snapshot.devices.find(node);
  if (it == snapshot.devices.end()) return std::nullopt;
  std::optional<net::Ipv4Address> fallback;
  for (const auto& [name, interface] : it->second.interfaces) {
    if (!interface.address || !interface.oper_up) continue;
    if (name.rfind("Loopback", 0) == 0 || name.rfind("lo", 0) == 0)
      return interface.address->address;
    if (!fallback || interface.address->address < *fallback)
      fallback = interface.address->address;
  }
  return fallback;
}

PairwiseResult pairwise_reachability(const ForwardingGraph& graph,
                                     const QueryOptions& options) {
  PairwiseResult result;
  const std::vector<net::NodeName>& nodes = graph.nodes();

  unsigned threads = resolve_threads(options);
  const bool cached = options.engine == EngineMode::kCached;
  if (!cached && threads <= 1) {
    for (const net::NodeName& source : nodes) {
      for (const net::NodeName& destination : nodes) {
        if (source == destination) continue;
        auto loopback = device_loopback(graph.snapshot(), destination);
        if (!loopback) continue;
        TraceResult trace = trace_flow(graph, source, *loopback, options.trace);
        bool reachable = trace.reachable();
        result.cells.push_back({source, destination, reachable});
        ++result.total_pairs;
        if (reachable) ++result.reachable_pairs;
      }
    }
    return result;
  }

  // Shard by destination device: its loopback's trace table is computed
  // once (memoized) and shared by all sources. Cells are emitted
  // source-major afterwards, matching the legacy ordering.
  const size_t node_count = nodes.size();
  std::vector<std::optional<net::Ipv4Address>> loopbacks(node_count);
  for (size_t d = 0; d < node_count; ++d)
    loopbacks[d] = device_loopback(graph.snapshot(), nodes[d]);

  CacheRef cache(options.cache, graph, options.metrics);
  obs::Histogram* shard_latency = shard_latency_histogram(options);
  std::vector<uint8_t> reachable(node_count * node_count, 0);
  util::parallel_for_shards(threads, node_count, [&](size_t d) {
    if (!loopbacks[d] || node_count < 2) return;
    timed_shard(shard_latency, [&] {
      // One table per destination serves its node_count - 1 cells.
      const TraceCache::Table* table =
          cached ? &(*cache).table(*loopbacks[d], node_count - 2) : nullptr;
      for (size_t s = 0; s < node_count; ++s) {
        if (s == d) continue;
        bool ok =
            cached ? table->at(static_cast<NodeId>(s)).contains(Disposition::kAccepted)
                   : trace_flow(graph, nodes[s], *loopbacks[d], options.trace).reachable();
        reachable[s * node_count + d] = ok ? 1 : 0;
      }
    });
  });

  for (size_t s = 0; s < node_count; ++s) {
    for (size_t d = 0; d < node_count; ++d) {
      if (s == d || !loopbacks[d]) continue;
      bool ok = reachable[s * node_count + d] != 0;
      result.cells.push_back({nodes[s], nodes[d], ok});
      ++result.total_pairs;
      if (ok) ++result.reachable_pairs;
    }
  }
  return result;
}

PairwiseResult pairwise_reachability(const ForwardingGraph& graph,
                                     const TraceOptions& options) {
  QueryOptions query;
  query.trace = options;
  return pairwise_reachability(graph, query);
}

}  // namespace mfv::verify

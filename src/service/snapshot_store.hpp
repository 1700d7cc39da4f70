// Content-addressed snapshot store: the service's memory.
//
// A stored snapshot is addressed by what produced it, not by a name:
//
//   (topology hash, config-set hash, scenario-delta hash)
//
// The topology hash covers structure only (nodes/links/peers with config
// text blanked), the config-set hash covers the per-node configuration
// bytes, and the delta hash chains the perturbation sequence applied on
// top of the converged base (empty chain = 0). Two clients uploading the
// same network therefore dedupe onto one converged emulation, and a
// what-if that differs only in its perturbations forks from the cached
// base instead of cold-booting (DESIGN.md §7).
//
// Entries carry everything a query needs — the captured gnmi::Snapshot,
// the live emulation (kept quiescent, fork()-able for further what-ifs),
// the ForwardingGraph, and a shared thread-safe TraceCache so concurrent
// requests on one snapshot amortize trace work across each other.
//
// Retention is byte-budget LRU. Eviction only drops the store's
// reference: in-flight requests hold shared_ptr leases, so an evicted
// entry stays alive until its last lease is released. Builds are
// single-flight — concurrent misses on one key block on the first
// builder instead of duplicating the convergence run.
//
// Tenancy: every entry lives inside a tenant namespace — the slot map is
// keyed (tenant, content key), so two tenants uploading byte-identical
// networks get independent entries, leases, and eviction fates (content
// addressing never leaks one operator's network into another's
// namespace). An optional per-tenant byte quota rides on top of the
// global budget: a tenant over quota evicts its own LRU entries first,
// and a single entry larger than the quota is rejected with
// RESOURCE_EXHAUSTED instead of cached — the quota is a hard ceiling,
// not a suggestion.
#pragma once

#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "emu/emulation.hpp"
#include "emu/topology.hpp"
#include "gnmi/gnmi.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "util/status.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::service {

struct SnapshotKey {
  uint64_t topology = 0;  // structure sans config text
  uint64_t configs = 0;   // per-node configuration bytes
  uint64_t delta = 0;     // chained perturbation hash; 0 = converged base

  bool operator==(const SnapshotKey&) const = default;

  /// "t<hex16>-c<hex16>-d<hex16>" — doubles as the client-visible
  /// submission id.
  std::string to_string() const;
  static std::optional<SnapshotKey> parse(std::string_view text);
};

/// Key of the converged base snapshot for a topology (delta = 0).
SnapshotKey key_for_topology(const emu::Topology& topology);

/// Chains `perturbations` onto a parent delta hash. Hashes the lossless
/// JSON wire form (perturbation_to_string drops config bytes, which would
/// collide distinct config deltas).
uint64_t delta_hash(uint64_t parent_delta,
                    const std::vector<scenario::Perturbation>& perturbations);

/// Key of the snapshot produced by applying `perturbations` to `base`.
SnapshotKey key_for_fork(const SnapshotKey& base,
                         const std::vector<scenario::Perturbation>& perturbations);

/// Second, FNV-independent content fingerprint of a topology (splitmix64
/// over the same serialization the key hashes). The store compares it on
/// cache hits before treating two snapshots as identical: a 64-bit
/// SnapshotKey collision then degrades to a counted disambiguation
/// (`store_hash_collisions`) instead of silently serving one network's
/// snapshot for another. 0 is reserved for "no check available".
uint64_t content_check_for_topology(const emu::Topology& topology);

/// Chains `perturbations` onto a parent content check, mirroring
/// key_for_fork over the independent hash.
uint64_t content_check_for_fork(uint64_t parent_check,
                                const std::vector<scenario::Perturbation>& perturbations);

/// One converged network state plus the machinery to query and fork it.
struct StoredSnapshot {
  SnapshotKey key;
  /// Namespace the entry was built under (stamped by the store).
  std::string tenant;
  gnmi::Snapshot snapshot;
  /// Quiescent post-convergence emulation; fork() source for what-ifs.
  std::unique_ptr<emu::Emulation> emulation;
  std::unique_ptr<verify::ForwardingGraph> graph;
  /// Thread-safe; shared by every request that leases this entry.
  std::unique_ptr<verify::TraceCache> cache;
  /// Independent content fingerprint (stamped by the store from the
  /// get_or_build argument; 0 = unchecked). Distinguishes genuine content
  /// identity from a SnapshotKey collision on later hits.
  uint64_t content_check = 0;
  /// Retention charge (snapshot JSON size unless the builder set it).
  size_t bytes = 0;
  /// Virtual convergence time and control-plane messages of the build.
  util::Duration convergence_time;
  uint64_t messages = 0;
};

struct StoreOptions {
  /// Byte budget for retained entries; the most recently used entry is
  /// always kept even if it alone exceeds the budget.
  size_t byte_budget = 512u << 20;
  /// Per-tenant byte quota; 0 = no per-tenant quota (only the global
  /// budget applies). A tenant over quota evicts its own LRU entries; an
  /// entry that alone exceeds the quota is refused with
  /// RESOURCE_EXHAUSTED rather than stored.
  size_t tenant_byte_budget = 0;
  /// Optional metrics sink: mirrors the snapshot_store_* family
  /// (hits/misses/evictions/single-flight joins as counters,
  /// entries/bytes as gauges, plus per-tenant
  /// snapshot_store_tenant_bytes_<tenant> gauges). The plain StoreStats
  /// members stay authoritative; stats() is a thin view either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-tenant slice of the retained footprint.
struct TenantStoreStats {
  size_t entries = 0;
  size_t bytes = 0;
  uint64_t quota_rejections = 0;
};

struct StoreStats {
  size_t entries = 0;
  size_t bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Callers that blocked on another caller's in-flight build of the
  /// same key instead of duplicating it (counted once per caller).
  uint64_t single_flight_joins = 0;
  /// Lookups whose key matched a cached entry but whose independent
  /// content check did not — a 64-bit key collision, routed to a
  /// disambiguated slot instead of served the wrong snapshot.
  uint64_t hash_collisions = 0;
  /// Aggregate TraceCache counters across live + evicted entries.
  uint64_t trace_hits = 0;
  uint64_t trace_misses = 0;
  /// Live footprint and quota pressure per tenant namespace.
  std::map<std::string, TenantStoreStats> tenants;
};

class SnapshotStore {
 public:
  using EntryPtr = std::shared_ptr<const StoredSnapshot>;

  /// A pinned entry: holding the Lease keeps the snapshot alive across
  /// eviction. `hit` is false when this call ran the builder.
  struct Lease {
    EntryPtr entry;
    bool hit = false;
  };

  /// Produces a fully populated entry on miss (key/bytes are stamped by
  /// the store). Runs outside the store lock; may take seconds.
  using Builder = std::function<util::Result<std::unique_ptr<StoredSnapshot>>()>;

  explicit SnapshotStore(StoreOptions options = {});

  /// Returns the cached entry or builds it exactly once: concurrent
  /// callers with the same (tenant, key) block until the first caller's
  /// builder finishes and then share its entry. A failed build is not
  /// cached. `tenant` must be non-empty (callers resolve the default
  /// namespace via Request::tenant_or_default).
  ///
  /// `content_check` (0 = skip) is an independent fingerprint of the
  /// content the key was derived from (content_check_for_topology /
  /// content_check_for_fork). When a cached entry's check disagrees, the
  /// key collided: the lookup is re-routed to a per-check disambiguated
  /// slot (never served the colliding entry) and `store_hash_collisions`
  /// is bumped. Bare-id lookups that carry no content (find) cannot be
  /// checked — the residual ambiguity of a 64-bit client-visible id.
  util::Result<Lease> get_or_build(const std::string& tenant, const SnapshotKey& key,
                                   const Builder& builder, uint64_t content_check = 0);

  /// Lookup without building; touches LRU and counts a store hit on
  /// success. nullptr on miss, and on a content-check mismatch (a
  /// collision miss, counted).
  EntryPtr find(const std::string& tenant, const SnapshotKey& key,
                uint64_t content_check = 0);

  StoreStats stats() const;

 private:
  struct Slot {
    EntryPtr value;          // null while building
    bool building = false;
    std::list<std::string>::iterator lru;  // valid iff value != null
  };

  /// "tenant/t…-c…-d…" — the namespaced slot identity.
  static std::string slot_id(const std::string& tenant, const SnapshotKey& key);

  /// The slot `id` names, or null when there is none. A stored entry
  /// whose content check disagrees with `content_check` is a key
  /// collision: counted, and `id` is re-routed to the disambiguated slot
  /// before looking again. Finding a stored entry counts a hit and
  /// touches the LRU; a slot still building is returned uncounted
  /// (caller holds the lock).
  Slot* lookup_locked(std::string& id, uint64_t content_check);

  /// Drops one entry by slot iterator: accounting, retired trace
  /// counters, LRU and tenant bookkeeping (caller holds the lock).
  void drop_locked(std::map<std::string, Slot>::iterator it);

  /// Drops least-recently-used entries until the global budget and every
  /// tenant quota hold (caller holds the lock). Never drops the most
  /// recent entry; tenant-quota pressure only evicts that tenant's own
  /// entries.
  void evict_locked(const std::string& tenant);

  void publish_tenant_bytes_locked(const std::string& tenant);

  StoreOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable build_done_;
  std::map<std::string, Slot> slots_;
  std::list<std::string> lru_;  // front = most recently used
  size_t bytes_ = 0;
  std::map<std::string, TenantStoreStats> tenants_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t single_flight_joins_ = 0;
  uint64_t hash_collisions_ = 0;
  /// TraceCache counters of evicted entries, so stats stay cumulative.
  uint64_t retired_trace_hits_ = 0;
  uint64_t retired_trace_misses_ = 0;

  /// Registry mirrors (null when no registry was injected).
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* joins_counter_ = nullptr;
  obs::Counter* collisions_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace mfv::service

#include "service/snapshot_store.hpp"

#include "util/hash.hpp"

namespace mfv::service {

std::string SnapshotKey::to_string() const {
  return "t" + util::hex64(topology) + "-c" + util::hex64(configs) + "-d" +
         util::hex64(delta);
}

std::optional<SnapshotKey> SnapshotKey::parse(std::string_view text) {
  // t<16>-c<16>-d<16> = 1 + 16 + 2 + 16 + 2 + 16
  if (text.size() != 53 || text[0] != 't' || text.substr(17, 2) != "-c" ||
      text.substr(35, 2) != "-d")
    return std::nullopt;
  SnapshotKey key;
  if (!util::parse_hex64(text.substr(1, 16), key.topology) ||
      !util::parse_hex64(text.substr(19, 16), key.configs) ||
      !util::parse_hex64(text.substr(37, 16), key.delta))
    return std::nullopt;
  return key;
}

SnapshotKey key_for_topology(const emu::Topology& topology) {
  SnapshotKey key;

  // Structure hash: the topology JSON with config bytes blanked, so a
  // config-only change moves the config hash but not the topology hash.
  emu::Topology structure = topology;
  for (emu::NodeSpec& node : structure.nodes) node.config_text.clear();
  key.topology = util::fnv1a(structure.to_json().dump());

  uint64_t configs = util::kFnvOffset;
  for (const emu::NodeSpec& node : topology.nodes) {
    configs = util::fnv1a(node.name, configs);
    configs = util::fnv1a(config::vendor_name(node.vendor), configs);
    configs = util::fnv1a(node.config_text, configs);
  }
  key.configs = configs;
  return key;
}

uint64_t delta_hash(uint64_t parent_delta,
                    const std::vector<scenario::Perturbation>& perturbations) {
  uint64_t hash = util::fnv1a_mix(parent_delta);
  for (const scenario::Perturbation& perturbation : perturbations)
    hash = util::fnv1a(scenario::perturbation_to_json(perturbation).dump(), hash);
  return hash;
}

SnapshotKey key_for_fork(const SnapshotKey& base,
                         const std::vector<scenario::Perturbation>& perturbations) {
  SnapshotKey key = base;
  key.delta = delta_hash(base.delta, perturbations);
  return key;
}

uint64_t content_check_for_topology(const emu::Topology& topology) {
  // Same serialization the key hashes, different hash family: an FNV
  // collision on the key and a splitmix collision on the check are
  // structurally unrelated events.
  uint64_t check = util::splitmix_hash(topology.to_json().dump());
  return check == 0 ? 1 : check;  // 0 means "unchecked"
}

uint64_t content_check_for_fork(uint64_t parent_check,
                                const std::vector<scenario::Perturbation>& perturbations) {
  uint64_t check = util::splitmix_mix(parent_check);
  for (const scenario::Perturbation& perturbation : perturbations)
    check = util::splitmix_hash(scenario::perturbation_to_json(perturbation).dump(),
                                check);
  return check == 0 ? 1 : check;
}

SnapshotStore::SnapshotStore(StoreOptions options) : options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *options_.metrics;
    hits_counter_ = &metrics.counter("snapshot_store_hits");
    misses_counter_ = &metrics.counter("snapshot_store_misses");
    evictions_counter_ = &metrics.counter("snapshot_store_evictions");
    joins_counter_ = &metrics.counter("snapshot_store_single_flight_joins");
    collisions_counter_ = &metrics.counter("store_hash_collisions");
    entries_gauge_ = &metrics.gauge("snapshot_store_entries");
    bytes_gauge_ = &metrics.gauge("snapshot_store_bytes");
  }
}

std::string SnapshotStore::slot_id(const std::string& tenant, const SnapshotKey& key) {
  return tenant + "/" + key.to_string();
}

util::Result<SnapshotStore::Lease> SnapshotStore::get_or_build(const std::string& tenant,
                                                               const SnapshotKey& key,
                                                               const Builder& builder,
                                                               uint64_t content_check) {
  std::string id = slot_id(tenant, key);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    bool joined = false;
    for (;;) {
      Slot* slot = lookup_locked(id, content_check);
      if (slot == nullptr) break;
      if (slot->value != nullptr) return Lease{slot->value, /*hit=*/true};
      // Someone else is building this key; wait for them rather than
      // duplicating a convergence run. Counted once per joining caller,
      // however many times the condition variable wakes it.
      if (!joined) {
        joined = true;
        ++single_flight_joins_;
        if (joins_counter_ != nullptr) joins_counter_->add(1);
      }
      build_done_.wait(lock);
    }
    ++misses_;
    if (misses_counter_ != nullptr) misses_counter_->add(1);
    slots_[id].building = true;
  }

  util::Result<std::unique_ptr<StoredSnapshot>> built = builder();
  // Size the entry before taking the lock: no other thread can see it yet,
  // and serializing a 200-router snapshot takes ~100 ms that store hits
  // would otherwise wait out.
  if (built.ok() && *built != nullptr && (*built)->bytes == 0)
    (*built)->bytes = (*built)->snapshot.to_json().dump().size();

  std::unique_lock<std::mutex> lock(mutex_);
  if (!built.ok() || *built == nullptr) {
    // Not cached: the next request for this key retries the build.
    slots_.erase(id);
    build_done_.notify_all();
    if (!built.ok()) return built.status();
    return util::internal_error("snapshot builder returned no entry");
  }

  std::shared_ptr<StoredSnapshot> entry(std::move(*built));
  entry->key = key;
  entry->tenant = tenant;
  entry->content_check = content_check;

  TenantStoreStats& tenant_stats = tenants_[tenant];
  if (options_.tenant_byte_budget > 0 && entry->bytes > options_.tenant_byte_budget) {
    // No amount of evicting this tenant's older entries would fit this
    // one under its quota, so the quota is enforced as a hard rejection.
    ++tenant_stats.quota_rejections;
    slots_.erase(id);
    build_done_.notify_all();
    return util::resource_exhausted(
        "snapshot of " + std::to_string(entry->bytes) + " bytes exceeds tenant '" +
        tenant + "' byte quota of " + std::to_string(options_.tenant_byte_budget));
  }

  Slot& slot = slots_[id];
  slot.value = entry;
  slot.building = false;
  lru_.push_front(id);
  slot.lru = lru_.begin();
  bytes_ += entry->bytes;
  tenant_stats.bytes += entry->bytes;
  ++tenant_stats.entries;
  evict_locked(tenant);
  if (entries_gauge_ != nullptr) {
    entries_gauge_->set(static_cast<int64_t>(lru_.size()));
    bytes_gauge_->set(static_cast<int64_t>(bytes_));
  }
  publish_tenant_bytes_locked(tenant);
  build_done_.notify_all();
  return Lease{std::move(entry), /*hit=*/false};
}

SnapshotStore::Slot* SnapshotStore::lookup_locked(std::string& id, uint64_t content_check) {
  for (;;) {
    auto it = slots_.find(id);
    if (it == slots_.end()) return nullptr;
    Slot& slot = it->second;
    if (slot.value == nullptr) return &slot;  // still building
    if (content_check != 0 && slot.value->content_check != 0 &&
        slot.value->content_check != content_check) {
      // The key collided with different content: never treat the two
      // snapshots as identical. Route this caller to a slot
      // disambiguated by its own fingerprint and look up again.
      ++hash_collisions_;
      if (collisions_counter_ != nullptr) collisions_counter_->add(1);
      id += "~" + util::hex64(content_check);
      continue;
    }
    ++hits_;
    if (hits_counter_ != nullptr) hits_counter_->add(1);
    lru_.splice(lru_.begin(), lru_, slot.lru);
    return &slot;
  }
}

SnapshotStore::EntryPtr SnapshotStore::find(const std::string& tenant,
                                            const SnapshotKey& key,
                                            uint64_t content_check) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string id = slot_id(tenant, key);
  Slot* slot = lookup_locked(id, content_check);
  return slot != nullptr ? slot->value : nullptr;
}

void SnapshotStore::drop_locked(std::map<std::string, Slot>::iterator it) {
  const EntryPtr& entry = it->second.value;
  bytes_ -= entry->bytes;
  TenantStoreStats& tenant_stats = tenants_[entry->tenant];
  tenant_stats.bytes -= entry->bytes;
  --tenant_stats.entries;
  if (entry->cache != nullptr) {
    retired_trace_hits_ += entry->cache->hits();
    retired_trace_misses_ += entry->cache->misses();
  }
  ++evictions_;
  if (evictions_counter_ != nullptr) evictions_counter_->add(1);
  lru_.erase(it->second.lru);
  slots_.erase(it);  // leaseholders keep the entry alive
}

void SnapshotStore::evict_locked(const std::string& tenant) {
  // Per-tenant quota first: the over-quota tenant pays with its own LRU
  // entries, never with another tenant's. Scanned back-to-front over the
  // shared recency list; the just-inserted front entry is exempt.
  if (options_.tenant_byte_budget > 0) {
    auto tenant_bytes = [&] { return tenants_[tenant].bytes; };
    while (tenant_bytes() > options_.tenant_byte_budget && lru_.size() > 1) {
      auto victim = slots_.end();
      for (auto lru_it = std::prev(lru_.end()); lru_it != lru_.begin(); --lru_it) {
        auto slot_it = slots_.find(*lru_it);
        if (slot_it->second.value->tenant == tenant) {
          victim = slot_it;
          break;
        }
      }
      if (victim == slots_.end()) break;  // only the fresh entry remains
      drop_locked(victim);
    }
    publish_tenant_bytes_locked(tenant);
  }
  while (bytes_ > options_.byte_budget && lru_.size() > 1) {
    auto it = slots_.find(lru_.back());
    const std::string victim_tenant = it->second.value->tenant;
    drop_locked(it);
    publish_tenant_bytes_locked(victim_tenant);
  }
}

void SnapshotStore::publish_tenant_bytes_locked(const std::string& tenant) {
  if (options_.metrics == nullptr) return;
  options_.metrics->gauge("snapshot_store_tenant_bytes_" + tenant)
      .set(static_cast<int64_t>(tenants_[tenant].bytes));
}

StoreStats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats stats;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.single_flight_joins = single_flight_joins_;
  stats.hash_collisions = hash_collisions_;
  stats.trace_hits = retired_trace_hits_;
  stats.trace_misses = retired_trace_misses_;
  stats.tenants = tenants_;
  for (const auto& [id, slot] : slots_) {
    if (slot.value == nullptr || slot.value->cache == nullptr) continue;
    stats.trace_hits += slot.value->cache->hits();
    stats.trace_misses += slot.value->cache->misses();
  }
  return stats;
}

}  // namespace mfv::service

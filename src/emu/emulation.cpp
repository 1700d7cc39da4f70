#include "emu/emulation.hpp"

#include <algorithm>
#include <chrono>

#include "config/dialect.hpp"
#include "util/logging.hpp"

namespace mfv::emu {

// ---------------------------------------------------------------------------
// ExternalPeer

ExternalPeer::ExternalPeer(ExternalPeerSpec spec, vrouter::Fabric& fabric)
    : spec_(std::move(spec)), fabric_(fabric) {}

ExternalPeer::ExternalPeer(const ExternalPeer& other, vrouter::Fabric& fabric)
    : spec_(other.spec_),
      fabric_(fabric),
      established_(other.established_),
      updates_received_(other.updates_received_),
      remote_(other.remote_) {}

void ExternalPeer::handle(const proto::Message& message, size_t batch_size) {
  if (const auto* open = std::get_if<proto::BgpOpen>(&message)) {
    remote_ = open->source;
    // Respond with our own Open, then stream the advertisement set.
    proto::BgpOpen reply;
    reply.as_number = spec_.as_number;
    reply.router_id = spec_.address;
    reply.source = spec_.address;
    fabric_.send_addressed("peer:" + spec_.name, open->source, proto::Message(reply));
    if (established_) return;
    established_ = true;

    size_t offset = 0;
    while (offset < spec_.routes.size()) {
      proto::BgpUpdate update;
      update.source = spec_.address;
      size_t end = std::min(offset + batch_size, spec_.routes.size());
      update.announced.assign(spec_.routes.begin() + static_cast<long>(offset),
                              spec_.routes.begin() + static_cast<long>(end));
      fabric_.send_addressed("peer:" + spec_.name, open->source, proto::Message(update));
      offset = end;
    }
  } else if (std::holds_alternative<proto::BgpUpdate>(message)) {
    ++updates_received_;
  } else if (std::holds_alternative<proto::BgpNotification>(message)) {
    established_ = false;
  }
}

bool ExternalPeer::withdraw(const std::vector<net::Ipv4Prefix>& prefixes) {
  if (!established_) return false;
  proto::BgpUpdate update;
  update.source = spec_.address;
  if (prefixes.empty()) {
    update.withdrawn.reserve(spec_.routes.size());
    for (const proto::BgpRoute& route : spec_.routes)
      update.withdrawn.push_back(route.prefix);
  } else {
    update.withdrawn = prefixes;
  }
  fabric_.send_addressed("peer:" + spec_.name, remote_, proto::Message(update));
  return true;
}

// ---------------------------------------------------------------------------
// Emulation

Emulation::Emulation(EmulationOptions options) : options_(options) {
  actor_rngs_.emplace_back(options_.seed, kEnvActor);
  wire_metrics();
}

Emulation::Emulation(const Emulation& other)
    : options_(other.options_),
      actor_rngs_(other.actor_rngs_),  // mid-stream state, not a reseed:
                                       // post-fork jitter draws match a cold
                                       // run continuing from here
      actor_ids_(other.actor_ids_),
      next_actor_id_(other.next_actor_id_),
      links_(other.links_),
      address_owner_(other.address_owner_),
      parse_diagnostics_(other.parse_diagnostics_),
      channel_busy_until_(other.channel_busy_until_),
      messages_delivered_(other.messages_delivered_),
      messages_dropped_(other.messages_dropped_) {
  wire_metrics();
  kernel_.adopt_time(other.kernel_);
  for (const auto& [name, router] : other.routers_)
    routers_.emplace(name, router->fork(*this));
  for (const auto& peer : other.external_peers_) {
    auto copy = std::make_unique<ExternalPeer>(*peer, *this);
    peer_addresses_[copy->spec().address] = copy.get();
    external_peers_.push_back(std::move(copy));
  }
}

std::unique_ptr<Emulation> Emulation::fork() const {
  if (!kernel_.idle()) return nullptr;
  return std::unique_ptr<Emulation>(new Emulation(*this));
}

Emulation::~Emulation() = default;

void Emulation::wire_metrics() {
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) return;
  delivered_counter_ = &metrics->counter("emu_messages_delivered");
  dropped_counter_ = &metrics->counter("emu_messages_dropped");
  convergence_runs_counter_ = &metrics->counter("emu_convergence_runs");
  events_counter_ = &metrics->counter("emu_events_processed");
  fib_compiles_counter_ = &metrics->counter("emu_fib_compiles");
  fib_entries_counter_ = &metrics->counter("emu_fib_entries_compiled");
  convergence_wall_us_ = &metrics->latency_histogram_us("emu_convergence_wall_us");
  convergence_virtual_us_ =
      &metrics->latency_histogram_us("emu_convergence_virtual_us");
  sharded_runs_counter_ = &metrics->counter("emu_sharded_runs");
  serial_fallbacks_counter_ = &metrics->counter("emu_serial_fallbacks");
  shard_epochs_counter_ = &metrics->counter("emu_shard_epochs");
  shard_events_per_run_ = &metrics->histogram(
      "emu_shard_events_per_run",
      {16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576});
  shard_barrier_stall_us_ =
      &metrics->latency_histogram_us("emu_shard_barrier_stall_us");
}

ActorId Emulation::register_actor(const net::NodeName& name) {
  auto [it, inserted] = actor_ids_.try_emplace(name, next_actor_id_);
  if (inserted) ++next_actor_id_;
  while (actor_rngs_.size() < next_actor_id_)
    actor_rngs_.emplace_back(options_.seed, actor_rngs_.size());
  return it->second;
}

ActorId Emulation::actor_of(const net::NodeName& name) const {
  auto it = actor_ids_.find(name);
  return it == actor_ids_.end() ? kEnvActor : it->second;
}

void Emulation::schedule_event(ActorId emitter, ActorId owner, util::Duration delay,
                               util::SmallFn fn, DeliveryTag tag) {
  if (ShardContext* ctx = current_shard_context(this)) {
    ctx->schedule(ctx->now + delay, emitter, owner, std::move(fn));
    return;
  }
  kernel_.schedule(delay, emitter, owner, std::move(fn), tag);
}

net::NodeName Emulation::actor_name(ActorId actor) const {
  for (const auto& [name, id] : actor_ids_)
    if (id == actor) return name;
  return {};
}

util::Duration Emulation::jitter(ActorId emitter) {
  if (options_.message_jitter_micros <= 0) return util::Duration::micros(0);
  util::Pcg32& rng = actor_rngs_[emitter < actor_rngs_.size() ? emitter : kEnvActor];
  return util::Duration::micros(static_cast<int64_t>(
      rng.next_below(static_cast<uint32_t>(options_.message_jitter_micros) + 1)));
}

void Emulation::index_addresses(const config::DeviceConfig& config) {
  for (const auto& [name, interface] : config.interfaces)
    if (interface.address) address_owner_[interface.address->address] = config.hostname;
}

util::Status Emulation::add_topology(const Topology& topology) {
  for (const NodeSpec& node : topology.nodes) {
    config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
    if (parsed.config.hostname.empty()) parsed.config.hostname = node.name;
    if (parsed.config.hostname != node.name)
      return util::invalid_argument("node '" + node.name + "' config has hostname '" +
                                    parsed.config.hostname + "'");
    parse_diagnostics_[node.name] = parsed.diagnostics;
    add_router(std::move(parsed.config));
  }
  for (const LinkSpec& link : topology.links) {
    if (routers_.find(link.a.node) == routers_.end())
      return util::not_found("link endpoint node '" + link.a.node + "' not in topology");
    if (routers_.find(link.b.node) == routers_.end())
      return util::not_found("link endpoint node '" + link.b.node + "' not in topology");
    if (link.latency_micros <= 0)
      return util::invalid_argument(
          "link " + link.a.to_string() + " <-> " + link.b.to_string() +
          " has non-positive latency (" + std::to_string(link.latency_micros) +
          "us); virtual links need latency >= 1us — a zero-latency link "
          "degenerates the sharded kernel's conservative lookahead horizon");
    add_link(link.a, link.b, link.latency_micros);
  }
  for (const ExternalPeerSpec& peer : topology.external_peers) {
    if (routers_.find(peer.attach_node) == routers_.end())
      return util::not_found("external peer attach node '" + peer.attach_node +
                             "' not in topology");
    add_external_peer(peer);
  }
  return util::Status::ok_status();
}

vrouter::VirtualRouter& Emulation::add_router(config::DeviceConfig config) {
  index_addresses(config);
  net::NodeName name = config.hostname;
  vrouter::VirtualRouterOptions options;
  options.bgp.prefer_oldest_tiebreak = options_.bgp_prefer_oldest;
  // Vendor signaling-timer quirk (§2 interplay anecdote): vjun resignals
  // RSVP-TE slowly, ceos quickly.
  if (config.vendor == config::Vendor::kVjun) {
    options.te.resignal_delay = util::Duration::seconds(30);
    options.te.refresh_processing_delay = util::Duration::seconds(30);
  } else {
    options.te.resignal_delay = util::Duration::seconds(1);
  }
  auto router = std::make_unique<vrouter::VirtualRouter>(std::move(config), *this, options);
  register_actor(name);
  auto [it, inserted] = routers_.insert_or_assign(name, std::move(router));
  return *it->second;
}

void Emulation::add_link(const net::PortRef& a, const net::PortRef& b,
                         int64_t latency_micros) {
  if (latency_micros <= 0) {
    MFV_LOG(kWarn, "emu") << "link " << a.to_string() << " <-> " << b.to_string()
                          << " has non-positive latency (" << latency_micros
                          << "us), clamping to 1us";
    latency_micros = 1;
  }
  links_[a] = LinkEnd{b, latency_micros, true};
  links_[b] = LinkEnd{a, latency_micros, true};
  refresh_link_states();
}

void Emulation::add_external_peer(ExternalPeerSpec spec) {
  auto peer = std::make_unique<ExternalPeer>(std::move(spec), *this);
  register_actor("peer:" + peer->spec().name);
  peer_addresses_[peer->spec().address] = peer.get();
  external_peers_.push_back(std::move(peer));
}

void Emulation::refresh_link_states() {
  for (const auto& [port, end] : links_) {
    auto it = routers_.find(port.node);
    if (it == routers_.end()) continue;
    bool connected = end.up && routers_.count(end.peer.node) > 0;
    it->second->set_link_state(port.interface, connected);
  }
  // External peers hang off otherwise-unwired interfaces: the interface
  // whose subnet contains the peer address carries link to the peer.
  for (const auto& peer : external_peers_) {
    auto it = routers_.find(peer->spec().attach_node);
    if (it == routers_.end()) continue;
    for (const auto& [name, iface] : it->second->configuration().interfaces) {
      if (!iface.address || iface.is_loopback()) continue;
      if (iface.address->subnet.contains(peer->spec().address))
        it->second->set_link_state(name, true);
    }
  }
}

void Emulation::start_all() {
  refresh_link_states();
  for (auto& [name, router] : routers_) {
    vrouter::VirtualRouter* r = router.get();
    ActorId actor = actor_of(name);
    kernel_.schedule(util::Duration::micros(0), actor, actor, [r] { r->start(); });
  }
}

void Emulation::start_node_after(const net::NodeName& node, util::Duration delay) {
  auto it = routers_.find(node);
  if (it == routers_.end()) return;
  vrouter::VirtualRouter* r = it->second.get();
  ActorId actor = actor_of(node);
  kernel_.schedule(delay, actor, actor, [r] { r->start(); });
}

util::Status Emulation::apply_config_text(const net::NodeName& node,
                                          const std::string& text, config::Vendor vendor) {
  auto it = routers_.find(node);
  if (it == routers_.end()) return util::not_found("no such node '" + node + "'");
  config::ParseResult parsed = config::parse_config(text, vendor);
  if (parsed.config.hostname.empty()) parsed.config.hostname = node;
  parse_diagnostics_[node] = parsed.diagnostics;
  index_addresses(parsed.config);
  it->second->apply_config(std::move(parsed.config));
  return util::Status::ok_status();
}

bool Emulation::set_link_up(const net::PortRef& a, const net::PortRef& b, bool up) {
  auto it_a = links_.find(a);
  auto it_b = links_.find(b);
  if (it_a == links_.end() || it_b == links_.end()) return false;
  if (it_a->second.peer != b || it_b->second.peer != a) return false;
  if (!up && it_a->second.up) {
    // Frames already on the wire die with the link (delivery re-checks the
    // epoch, so even a flap faster than the latency drops them).
    ++it_a->second.down_epoch;
    ++it_b->second.down_epoch;
  }
  it_a->second.up = up;
  it_b->second.up = up;
  refresh_link_states();
  return true;
}

bool Emulation::withdraw_external_routes(const std::string& peer,
                                         const std::vector<net::Ipv4Prefix>& prefixes) {
  for (const auto& external : external_peers_)
    if (external->spec().name == peer) return external->withdraw(prefixes);
  return false;
}

bool Emulation::run_to_convergence(uint64_t max_events) {
  if (convergence_runs_counter_ == nullptr) return run_events(max_events);
  uint64_t events_before = kernel_.executed();
  util::TimePoint virtual_before = kernel_.now();
  auto wall_before = std::chrono::steady_clock::now();
  auto fib_work = [&] {
    std::pair<uint64_t, uint64_t> work{0, 0};
    for (const auto& [name, router] : routers_) {
      work.first += router->fib_compiles();
      work.second += router->fib_entries_compiled();
    }
    return work;
  };
  const auto fib_before = fib_work();
  bool converged = run_events(max_events);
  const auto fib_after = fib_work();
  convergence_runs_counter_->add(1);
  events_counter_->add(kernel_.executed() - events_before);
  fib_compiles_counter_->add(fib_after.first - fib_before.first);
  fib_entries_counter_->add(fib_after.second - fib_before.second);
  convergence_wall_us_->observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_before)
          .count());
  convergence_virtual_us_->observe((kernel_.now() - virtual_before).count_micros());
  return converged;
}

bool Emulation::run_events(uint64_t max_events) {
  uint32_t shards = options_.shards;
  if (shards > routers_.size()) shards = static_cast<uint32_t>(routers_.size());
  if (shards <= 1 || kernel_.idle()) return kernel_.run_until_idle(max_events);
  return run_sharded(shards, max_events);
}

bool Emulation::run_sharded(uint32_t shards, uint64_t max_events) {
  std::vector<KernelEvent> pending = kernel_.take_pending();
  bool unattributed = false;
  for (const KernelEvent& event : pending)
    if (event.owner == kEnvActor) {
      // Environment events (raw kernel scheduling from tests or tooling)
      // have no shard to run on; correctness first, so run serially.
      unattributed = true;
      break;
    }

  ShardPlan plan;
  if (!unattributed) {
    ShardPlanInputs inputs;
    inputs.actor_count = next_actor_id_;
    inputs.requested_shards = shards;
    inputs.addressed_latency_micros = options_.addressed_latency_micros;
    inputs.routers.reserve(routers_.size());
    for (const auto& [name, router] : routers_) inputs.routers.push_back(actor_of(name));
    for (const auto& [port, end] : links_) {
      if (!(port < end.peer)) continue;  // each undirected link once
      inputs.edges.push_back(
          {actor_of(port.node), actor_of(end.peer.node), end.latency_micros});
    }
    for (const auto& peer : external_peers_)
      inputs.affinities.emplace_back(actor_of("peer:" + peer->spec().name),
                                     actor_of(peer->spec().attach_node));
    for (const auto& [node, shard] : options_.shard_assignment)
      if (ActorId actor = actor_of(node); actor != kEnvActor)
        inputs.overrides[actor] = shard;
    plan = plan_shards(inputs);
  }
  if (unattributed || plan.shards <= 1 || plan.lookahead_micros <= 0) {
    ++serial_fallbacks_;
    if (serial_fallbacks_counter_ != nullptr) serial_fallbacks_counter_->add(1);
    kernel_.restore(std::move(pending));
    return kernel_.run_until_idle(max_events);
  }

  ShardRunInputs run_inputs;
  run_inputs.context_tag = this;
  run_inputs.channel_busy.resize(plan.shards);
  for (const auto& [key, busy] : channel_busy_until_) {
    ActorId sender = actor_of(key.first);
    uint32_t shard = sender == kEnvActor ? 0 : plan.shard_of[sender];
    run_inputs.channel_busy[shard].emplace(key, busy);
  }
  channel_busy_until_.clear();
  run_inputs.plan = std::move(plan);
  run_inputs.initial_events = std::move(pending);
  run_inputs.actor_seqs = kernel_.take_actor_seqs(next_actor_id_);
  run_inputs.start_now = kernel_.now();
  run_inputs.max_events = max_events;

  ShardRunResult result = run_sharded_events(std::move(run_inputs));

  kernel_.restore_actor_seqs(std::move(result.actor_seqs));
  util::TimePoint absorb_now = result.final_now;
  // A capped run leaves events behind; the clock must not pass them, or
  // their later execution would move virtual time backwards.
  for (const KernelEvent& event : result.leftovers)
    absorb_now = std::min(absorb_now, event.key.when);
  kernel_.absorb_run(absorb_now, result.executed);
  if (!result.leftovers.empty()) kernel_.restore(std::move(result.leftovers));

  messages_delivered_ += result.delivered;
  messages_dropped_ += result.dropped;
  if (delivered_counter_ != nullptr && result.delivered > 0)
    delivered_counter_->add(static_cast<int64_t>(result.delivered));
  if (dropped_counter_ != nullptr && result.dropped > 0)
    dropped_counter_->add(static_cast<int64_t>(result.dropped));
  for (auto& slice : result.channel_busy)
    for (auto& [key, busy] : slice) channel_busy_until_[key] = busy;

  if (sharded_runs_counter_ != nullptr) {
    sharded_runs_counter_->add(1);
    shard_epochs_counter_->add(static_cast<int64_t>(result.epochs));
    for (size_t shard = 0; shard < result.shard_events.size(); ++shard) {
      shard_events_per_run_->observe(static_cast<int64_t>(result.shard_events[shard]));
      shard_barrier_stall_us_->observe(result.shard_barrier_stall_us[shard]);
    }
  }
  return result.drained;
}

util::TimePoint Emulation::converged_at() const {
  util::TimePoint latest;
  for (const auto& [name, router] : routers_)
    latest = std::max(latest, router->last_fib_change());
  return latest;
}

vrouter::VirtualRouter* Emulation::router(const net::NodeName& node) {
  auto it = routers_.find(node);
  return it == routers_.end() ? nullptr : it->second.get();
}
const vrouter::VirtualRouter* Emulation::router(const net::NodeName& node) const {
  auto it = routers_.find(node);
  return it == routers_.end() ? nullptr : it->second.get();
}

std::vector<net::NodeName> Emulation::node_names() const {
  std::vector<net::NodeName> names;
  names.reserve(routers_.size());
  for (const auto& [name, router] : routers_) names.push_back(name);
  return names;
}

std::vector<aft::DeviceAft> Emulation::dump_afts() const {
  std::vector<aft::DeviceAft> afts;
  afts.reserve(routers_.size());
  for (const auto& [name, router] : routers_) afts.push_back(router->device_aft());
  return afts;
}

// ---------------------------------------------------------------------------
// Fabric

void Emulation::send_on_interface(const net::NodeName& node,
                                  const net::InterfaceName& interface,
                                  const proto::Message& message) {
  net::PortRef from{node, interface};
  auto it = links_.find(from);
  if (it == links_.end() || !it->second.up) {
    note_dropped();
    return;
  }
  if (routers_.find(it->second.peer.node) == routers_.end()) {
    note_dropped();
    return;
  }
  ActorId emitter = actor_of(node);
  util::Duration delay =
      util::Duration::micros(it->second.latency_micros) + jitter(emitter);
  // The frame is re-validated at arrival: a cut (or any down/up flap — the
  // epoch check) while it was in flight drops it, like a real wire losing
  // its contents. The captured LinkEnd stays valid (links are never
  // erased) and keeps the event free of raw router pointers — and small
  // enough for the kernel's inline event buffer, so the hot send path
  // never heap-allocates.
  uint64_t epoch = it->second.down_epoch;
  const LinkEnd* end = &it->second;
  schedule_event(emitter, actor_of(end->peer.node), delay,
                 [this, end, epoch, message] {
                   if (!end->up || end->down_epoch != epoch) {
                     note_dropped();
                     return;
                   }
                   auto router_it = routers_.find(end->peer.node);
                   if (router_it == routers_.end()) {
                     note_dropped();
                     return;
                   }
                   note_delivered();
                   router_it->second->deliver_on_interface(end->peer.interface, message);
                 });
}

void Emulation::send_addressed(const net::NodeName& node, net::Ipv4Address destination,
                               const proto::Message& message) {
  ActorId emitter = actor_of(node);
  util::Duration delay =
      util::Duration::micros(options_.addressed_latency_micros) + jitter(emitter);
  if (const auto* update = std::get_if<proto::BgpUpdate>(&message))
    delay = delay + util::Duration::micros(
                        static_cast<int64_t>(update->announced.size() +
                                             update->withdrawn.size()) *
                        options_.per_route_processing_micros);
  // Serialize messages per session channel. During a sharded run the
  // sender's shard owns its channel slice (and its clock), so the busy
  // bookkeeping stays thread-private.
  ShardContext* ctx = current_shard_context(this);
  util::TimePoint current = ctx != nullptr ? ctx->now : kernel_.now();
  auto& busy_map = ctx != nullptr ? ctx->channel_busy : channel_busy_until_;
  util::TimePoint& busy_until = busy_map[{node, destination.bits()}];
  util::TimePoint deliver_at = std::max(current, busy_until) + delay;
  busy_until = deliver_at;
  delay = deliver_at - current;
  if (auto peer_it = peer_addresses_.find(destination); peer_it != peer_addresses_.end()) {
    ExternalPeer* peer = peer_it->second;
    schedule_event(emitter, actor_of("peer:" + peer->spec().name), delay,
                   [this, peer, message] {
                     note_delivered();
                     peer->handle(message, options_.injection_batch_size);
                   });
    return;
  }
  auto owner_it = address_owner_.find(destination);
  if (owner_it == address_owner_.end()) {
    note_dropped();
    return;
  }
  auto router_it = routers_.find(owner_it->second);
  if (router_it == routers_.end()) {
    note_dropped();
    return;
  }
  vrouter::VirtualRouter* target = router_it->second.get();
  // Tag BGP-update deliveries into routers so a controlled (exploration)
  // run can recognize them as reorderable race candidates. The channel is
  // the destination address: together with the emitter it names the
  // session, whose deliveries stay FIFO (the channel_busy_until_
  // serialization above models exactly that TCP ordering).
  DeliveryTag tag;
  if (std::get_if<proto::BgpUpdate>(&message) != nullptr)
    tag = DeliveryTag{DeliveryKind::kBgpUpdate, emitter, destination.bits()};
  schedule_event(emitter, actor_of(owner_it->second), delay,
                 [this, target, message] {
                   note_delivered();
                   target->deliver_addressed(message);
                 },
                 tag);
}

void Emulation::schedule(const net::NodeName& node, util::Duration delay,
                         std::function<void()> fn) {
  ActorId actor = actor_of(node);
  schedule_event(actor, actor, delay, std::move(fn));
}

}  // namespace mfv::emu

#include "verify/trace_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace mfv::verify {

namespace {

/// Node sets are bitsets over NodeIds, `words` 64-bit words long.
bool test_bit(const uint64_t* bits, NodeId node) {
  return (bits[node >> 6] >> (node & 63)) & 1;
}
void set_bit(uint64_t* bits, NodeId node) { bits[node >> 6] |= uint64_t{1} << (node & 63); }
void clear_bit(uint64_t* bits, NodeId node) {
  bits[node >> 6] &= ~(uint64_t{1} << (node & 63));
}

/// Memoized continuations of one class while it is solved. Unlabeled
/// states are flat per NodeId — their sets live in the class Table
/// itself — and MPLS label states, rare, sit in a side map. Local to the
/// solve: the published table needs none of it.
struct ClassMemo {
  /// By NodeId: the unlabeled state's set is in the table.
  std::vector<uint8_t> memoized;
  /// By NodeId, one node bitset each: the nodes the state's subtree
  /// traverses. Loop detection is node-based, so a memoized result is
  /// valid for a caller only when none of these nodes are already on the
  /// caller's path — otherwise the legacy walker would have declared a
  /// loop at that node and the continuation recorded here never runs
  /// (found by the serial-vs-threaded fuzz oracle; regression in
  /// tests/fuzz_corpus/).
  std::vector<uint64_t> footprints;
  struct Labeled {
    DispositionSet set;
    size_t footprint = 0;  // offset into label_footprints
  };
  /// (node, label) state key -> memoized continuation.
  std::unordered_map<uint64_t, Labeled> labeled;
  std::vector<uint64_t> label_footprints;
};

/// Per-class depth-first disposition solver. States are (node, carried
/// MPLS label); loop detection is node-based like the legacy walker's
/// visited set, so a revisit of a device under *any* label state ends the
/// path with kLoop.
///
/// The subtlety: inside a forwarding cycle, a node's disposition set is
/// context-sensitive — entering the cycle mid-way blocks exploration of
/// the on-stack part, so the truncated union must not be memoized (a
/// plain tri-color memo would record {LOOP} for a cycle member that can
/// also reach an exit). Every on-stack hit therefore taints the result
/// with the hit node; a frame absorbs taint on its own node when it pops
/// and only untainted (context-free) results enter the memo. Roots are
/// always untainted by the time they return — all deps reference stack
/// ancestors — so one pass over all nodes fully populates the table.
///
/// Each recursion depth owns one frame: its disposition set plus two
/// node bitsets, the taint (deps) and the footprint, merged into the
/// parent frame when the state returns.
class ClassSolver {
 public:
  ClassSolver(const ForwardingGraph& graph, net::Ipv4Address destination,
              ClassMemo& memo, std::vector<DispositionSet>& sets,
              std::atomic<uint64_t>* reexpansions, obs::Counter* reexpansions_counter)
      : graph_(graph),
        destination_(destination),
        destination_owner_(graph.owner(destination)),
        memo_(memo),
        sets_(sets),
        reexpansions_(reexpansions),
        reexpansions_counter_(reexpansions_counter) {
    const size_t nodes = graph.node_count();
    words_ = (nodes + 63) / 64;
    memo_.memoized.assign(nodes, 0);
    memo_.footprints.assign(nodes * words_, 0);
    sets_.assign(nodes, DispositionSet());
    on_stack_.assign(words_, 0);
  }

  /// Solves every root (and every continuation it reaches), memoizing
  /// into the class memo. Root results are always context-free: every
  /// dependency recorded below a frame is absorbed when that frame pops,
  /// so by the time the (empty-stack) root returns, deps is empty and
  /// the result was memoized by visit() itself. A root already memoized
  /// as an earlier root's continuation is skipped.
  void solve_all() {
    for (NodeId node = 0; node < graph_.node_count(); ++node) {
      if (memo_.memoized[node]) continue;
      open_frame(0);
      visit(node, std::nullopt, 0);
      close_frame(0);
    }
  }

 private:
  uint64_t* deps(size_t frame) { return frame_bits_.data() + frame * 2 * words_; }
  uint64_t* footprint(size_t frame) { return deps(frame) + words_; }

  /// Readies frame `frame` (empty set, no taint, empty footprint).
  void open_frame(size_t frame) {
    if (frame_sets_.size() <= frame) {
      frame_sets_.resize(frame + 1);
      frame_tainted_.resize(frame + 1, 0);
      frame_bits_.resize((frame + 1) * 2 * words_, 0);
    }
    frame_sets_[frame] = DispositionSet();
    std::fill_n(footprint(frame), words_, 0);
  }
  /// Restores the all-zero taint words a fresh frame expects.
  void close_frame(size_t frame) {
    if (!frame_tainted_[frame]) return;
    std::fill_n(deps(frame), words_, 0);
    frame_tainted_[frame] = 0;
  }

  static uint64_t label_key(NodeId node, uint32_t label) {
    // label+1 so a labeled key never collides with the unlabeled state.
    return (static_cast<uint64_t>(node) << 33) | (static_cast<uint64_t>(label) + 1);
  }

  /// The memoized continuation of (node, label): its set and footprint.
  bool find_memo(NodeId node, std::optional<uint32_t> label, DispositionSet& set,
                 const uint64_t*& traversed) const {
    if (!label) {
      if (!memo_.memoized[node]) return false;
      set = sets_[node];
      traversed = memo_.footprints.data() + node * words_;
      return true;
    }
    auto it = memo_.labeled.find(label_key(node, *label));
    if (it == memo_.labeled.end()) return false;
    set = it->second.set;
    traversed = memo_.label_footprints.data() + it->second.footprint;
    return true;
  }

  void store_memo(NodeId node, std::optional<uint32_t> label, size_t frame) {
    uint64_t* target;
    if (!label) {
      memo_.memoized[node] = 1;
      sets_[node] = frame_sets_[frame];
      target = memo_.footprints.data() + node * words_;
    } else {
      auto [it, fresh] = memo_.labeled.try_emplace(label_key(node, *label));
      if (fresh) {
        it->second.footprint = memo_.label_footprints.size();
        memo_.label_footprints.resize(memo_.label_footprints.size() + words_);
      }
      it->second.set = frame_sets_[frame];
      target = memo_.label_footprints.data() + it->second.footprint;
    }
    std::copy_n(footprint(frame), words_, target);
  }

  /// Merges the continuation of state (node, label) into frame `parent`.
  void visit(NodeId node, std::optional<uint32_t> label, size_t parent) {
    // The on-stack check must come BEFORE the memo lookup. A memoized
    // entry for (node, label') is context-free only in contexts where the
    // node is not already on the path: the legacy walker's visited set is
    // node-based, so re-entering an on-stack device under a *different*
    // label state is a loop for this path even though the state's
    // context-free continuation (memoized from some other root, where the
    // node was fresh) says otherwise. Serving the memo here absorbed taint
    // owed to the on-stack node and silently diverged from the serial
    // walker on cycles spanning multiple label states (found by the
    // serial-vs-threaded fuzz oracle; regression in tests/fuzz_corpus/).
    if (test_bit(on_stack_.data(), node)) {
      // Device already on the current path (under any label state): the
      // legacy walker's node-based visited set calls this a loop. The
      // verdict holds only for paths running through that on-stack
      // occurrence, so taint the result with the node — a cycle member
      // reached mid-cycle may still reach exits this truncated branch
      // cannot see, and must not be memoized here.
      frame_sets_[parent].add(Disposition::kLoop);
      set_bit(deps(parent), node);
      frame_tainted_[parent] = 1;
      set_bit(footprint(parent), node);
      return;
    }
    DispositionSet memo_set;
    const uint64_t* traversed = nullptr;
    if (find_memo(node, label, memo_set, traversed)) {
      // A memo entry is context-free only for callers whose path avoids
      // every node its subtree traverses: loop detection is node-based,
      // so if any footprint node is already on the stack, the legacy
      // walker would cut this continuation short with kLoop at that node
      // instead of running it to the recorded terminals. Re-expand in
      // context — the expansion deterministically reaches the on-stack
      // node, returns tainted, and is not re-memoized (found by the
      // serial-vs-threaded fuzz oracle on label cycles whose broken
      // binding sits on the re-entered node).
      bool reusable = true;
      for (size_t w = 0; w < words_; ++w) {
        if (traversed[w] & on_stack_[w]) {
          reusable = false;
          break;
        }
      }
      if (reusable) {
        frame_sets_[parent].merge(memo_set);
        uint64_t* into = footprint(parent);
        for (size_t w = 0; w < words_; ++w) into[w] |= traversed[w];
        return;
      }
      if (reexpansions_ != nullptr) reexpansions_->fetch_add(1, std::memory_order_relaxed);
      if (reexpansions_counter_ != nullptr) reexpansions_counter_->add(1);
    }

    const size_t frame = parent + 1;
    open_frame(frame);
    set_bit(on_stack_.data(), node);
    expand(node, label, frame);
    clear_bit(on_stack_.data(), node);

    set_bit(footprint(frame), node);
    if (frame_tainted_[frame]) {
      // This frame satisfies its own-node deps.
      uint64_t* taint = deps(frame);
      clear_bit(taint, node);
      frame_tainted_[frame] =
          std::any_of(taint, taint + words_, [](uint64_t word) { return word != 0; });
    }
    if (!frame_tainted_[frame]) store_memo(node, label, frame);

    frame_sets_[parent].merge(frame_sets_[frame]);
    uint64_t* into = footprint(parent);
    const uint64_t* from = footprint(frame);
    for (size_t w = 0; w < words_; ++w) into[w] |= from[w];
    if (frame_tainted_[frame]) {
      uint64_t* parent_taint = deps(parent);
      const uint64_t* taint = deps(frame);
      for (size_t w = 0; w < words_; ++w) parent_taint[w] |= taint[w];
      frame_tainted_[parent] = 1;
    }
    close_frame(frame);
  }

  /// One step of the legacy walker, disposition-only: label forwarding
  /// until pop, then IP forwarding. Mirrors Tracer::walk in trace.cpp.
  void expand(NodeId node, std::optional<uint32_t> label, size_t frame) {
    if (label) {
      const ForwardingGraph::LabelRoute* binding = graph_.label_route(node, *label);
      if (binding == nullptr || binding->hops.empty()) {
        frame_sets_[frame].add(Disposition::kNoRoute);
        return;
      }
      const ForwardingGraph::Hop& action = binding->hops.front();  // LSPs do not ECMP
      if (action.next_hop->label_op != aft::LabelOp::kPop) {
        // Swap and move downstream.
        if (action.owner == kNoNode) {
          frame_sets_[frame].add(Disposition::kNeighborUnreachable);
          return;
        }
        visit(action.owner, action.next_hop->label, frame);
        return;
      }
      // Pop: resume IP forwarding on this node, same frame (the walker
      // does not re-check its visited set here).
    }

    if (destination_owner_ != nullptr && destination_owner_->node == node) {
      frame_sets_[frame].add(Disposition::kAccepted);
      return;
    }

    const ForwardingGraph::Route* route = graph_.route(node, destination_);
    if (route == nullptr || route->hops.empty()) {
      frame_sets_[frame].add(Disposition::kNoRoute);
      return;
    }

    for (const ForwardingGraph::Hop& hop : route->hops) {
      const aft::NextHop& next_hop = *hop.next_hop;
      if (next_hop.drop) {
        frame_sets_[frame].add(Disposition::kNullRouted);
        continue;
      }
      if (!ForwardingGraph::permits(hop.acl_out, destination_)) {
        frame_sets_[frame].add(Disposition::kDeniedOut);
        continue;
      }
      if (next_hop.ip_address) {
        if (hop.owner == kNoNode) {
          frame_sets_[frame].add(Disposition::kNeighborUnreachable);
          continue;
        }
        if (!ForwardingGraph::permits(hop.acl_in, destination_)) {
          frame_sets_[frame].add(Disposition::kDeniedIn);
          continue;
        }
        std::optional<uint32_t> pushed;
        if (next_hop.label_op == aft::LabelOp::kPush) pushed = next_hop.label;
        visit(hop.owner, pushed, frame);
        continue;
      }
      // Attached: forwarding onto a connected subnet.
      if (destination_owner_ != nullptr) {
        if (!ForwardingGraph::permits(destination_owner_->acl_in, destination_)) {
          frame_sets_[frame].add(Disposition::kDeniedIn);
          continue;
        }
        visit(destination_owner_->node, std::nullopt, frame);
      } else if (graph_.on_connected_subnet(node, destination_)) {
        frame_sets_[frame].add(Disposition::kDeliveredToSubnet);
      } else {
        frame_sets_[frame].add(Disposition::kExitsNetwork);
      }
    }
  }

  const ForwardingGraph& graph_;
  net::Ipv4Address destination_;
  const ForwardingGraph::Owner* destination_owner_;
  ClassMemo& memo_;
  std::vector<DispositionSet>& sets_;
  std::atomic<uint64_t>* reexpansions_;
  obs::Counter* reexpansions_counter_;
  size_t words_ = 0;
  std::vector<uint64_t> on_stack_;
  /// Per-depth frames (the vectors only grow; index, never hold pointers
  /// across a recursive call).
  std::vector<DispositionSet> frame_sets_;
  std::vector<uint8_t> frame_tainted_;
  std::vector<uint64_t> frame_bits_;
};

uint32_t mix(uint32_t key) {
  // murmur3 fmix32: class representatives are clustered, the buckets
  // should not be.
  key ^= key >> 16;
  key *= 0x85ebca6bu;
  key ^= key >> 13;
  key *= 0xc2b2ae35u;
  key ^= key >> 16;
  return key;
}

}  // namespace

struct TraceCache::ClassSlot {
  explicit ClassSlot(uint32_t destination) : destination(destination) {}

  const uint32_t destination;
  /// Next slot in the bucket chain; fixed before the slot is published.
  ClassSlot* next = nullptr;
  /// Guards the table until `solved` flips; after that the table is
  /// immutable and read without the lock.
  std::mutex mutex;
  std::atomic<bool> solved{false};
  Table table;
};

TraceCache::TraceCache(const ForwardingGraph& graph, obs::MetricsRegistry* metrics)
    : graph_(graph) {
  const size_t buckets = std::bit_ceil(std::max<size_t>(1024, 4 * graph.node_count()));
  buckets_ = std::make_unique<std::atomic<ClassSlot*>[]>(buckets);
  for (size_t i = 0; i < buckets; ++i) buckets_[i].store(nullptr, std::memory_order_relaxed);
  bucket_mask_ = buckets - 1;
  if (metrics != nullptr) {
    hits_counter_ = &metrics->counter("trace_cache_hits");
    misses_counter_ = &metrics->counter("trace_cache_misses");
    reexpansions_counter_ = &metrics->counter("trace_cache_reexpansions");
  }
}

TraceCache::~TraceCache() {
  for (size_t i = 0; i <= bucket_mask_; ++i) {
    ClassSlot* slot = buckets_[i].load(std::memory_order_relaxed);
    while (slot != nullptr) {
      ClassSlot* next = slot->next;
      delete slot;
      slot = next;
    }
  }
}

TraceCache::ClassSlot& TraceCache::slot_for(net::Ipv4Address destination) {
  const uint32_t key = destination.bits();
  std::atomic<ClassSlot*>& head = buckets_[mix(key) & bucket_mask_];
  ClassSlot* first = head.load(std::memory_order_acquire);
  for (ClassSlot* slot = first; slot != nullptr; slot = slot->next)
    if (slot->destination == key) return *slot;
  auto fresh = std::make_unique<ClassSlot>(key);
  for (;;) {
    fresh->next = first;
    if (head.compare_exchange_weak(first, fresh.get(), std::memory_order_release,
                                   std::memory_order_acquire)) {
      classes_.fetch_add(1, std::memory_order_relaxed);
      return *fresh.release();
    }
    // Another thread pushed first: it may have published this class.
    for (ClassSlot* slot = first; slot != nullptr; slot = slot->next)
      if (slot->destination == key) return *slot;
  }
}

void TraceCache::count(bool solved_here, uint64_t reads) {
  uint64_t hits = reads + (solved_here ? 0 : 1);
  if (solved_here) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->add(1);
  }
  if (hits == 0) return;
  hits_.fetch_add(hits, std::memory_order_relaxed);
  if (hits_counter_ != nullptr) hits_counter_->add(hits);
}

const TraceCache::Table& TraceCache::table(net::Ipv4Address destination, uint64_t reads) {
  ClassSlot& slot = slot_for(destination);
  bool solved_here = false;
  if (!slot.solved.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.solved.load(std::memory_order_relaxed)) {
      ClassMemo memo;
      ClassSolver solver(graph_, destination, memo, slot.table.sets_, &reexpansions_,
                         reexpansions_counter_);
      solver.solve_all();
      slot.solved.store(true, std::memory_order_release);
      solved_here = true;
    }
  }
  count(solved_here, reads);
  return slot.table;
}

DispositionSet TraceCache::dispositions(const net::NodeName& source,
                                        net::Ipv4Address destination) {
  NodeId node = graph_.id_of(source);
  if (node == kNoNode) {
    DispositionSet no_route;
    no_route.add(Disposition::kNoRoute);
    return no_route;
  }
  return table(destination).at(node);
}

}  // namespace mfv::verify

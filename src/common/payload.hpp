#pragma once
// Immutable, ref-counted message payload -- the unit of zero-copy messaging.
//
// A Payload is created exactly once per logical send (by freezing a scratch
// serde::Writer, or by adopting an already-built byte vector) and is then
// shared by every queue slot, envelope and receiver that needs it: copying a
// Payload bumps a reference count, never the bytes. An n-way broadcast
// therefore performs one encode and zero payload buffer copies
// (DESIGN_PERF.md).
//
// A Payload may carry a *decode cache*: the sender attaches the typed,
// already-decoded message object next to the bytes so honest-path receivers
// skip re-parsing. The cache is only ever attached at the site that encoded
// those exact bytes (see encode rules in core/messages.hpp and
// multishot/messages.hpp), so bytes and cache cannot disagree. Receivers of
// point-to-point or hand-crafted (Byzantine test double) payloads see no
// cache and take the total-decode path.
//
// ---- Thread-safety contract (the LocalRunner runs one thread per node) ----
//
//  - The reference count is atomic: distinct Payload handles to the same
//    buffer may be copied/moved/destroyed concurrently from different
//    threads. (One *handle* is still single-owner: two threads may not
//    mutate the same Payload object without external synchronization --
//    the usual shared_ptr rule.)
//  - Bytes and the decode cache are write-once-before-publish: they are
//    written by the creating thread only, before the payload is handed to
//    any other thread, and are immutable afterwards. Publication (pushing
//    into a sim event queue or a LocalRunner mailbox, both under a mutex)
//    provides the happens-before edge, so receivers read bytes() and
//    cached<M>() without synchronization. attach_decoded on a payload that
//    another thread can already see is a contract violation.
//  - Stats counters are relaxed atomics: totals are exact, cross-counter
//    snapshots are not ordered. The single-threaded simulation pays one
//    uncontended atomic op per counter bump, which bench_hotpath's
//    invariants comfortably absorb.
//
// Counters in Payload::stats() feed bench_hotpath's copy/alloc assertions.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <typeinfo>
#include <utility>
#include <variant>
#include <vector>

#include "common/serde.hpp"

namespace tbft {

class Payload {
 public:
  /// Global accounting. Relaxed atomics: exact totals, safe under the
  /// threaded runner; no ordering between counters is implied.
  struct Stats {
    std::atomic<std::uint64_t> frozen{0};   // payloads created from a scratch Writer
    std::atomic<std::uint64_t> adopted{0};  // payloads that adopted a byte vector
    std::atomic<std::uint64_t> caches_attached{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};

    void reset() noexcept {
      frozen.store(0, std::memory_order_relaxed);
      adopted.store(0, std::memory_order_relaxed);
      caches_attached.store(0, std::memory_order_relaxed);
      cache_hits.store(0, std::memory_order_relaxed);
      cache_misses.store(0, std::memory_order_relaxed);
    }
  };
  static Stats& stats() noexcept {
    static Stats s;
    return s;
  }

  Payload() = default;

  /// Adopt an already-built buffer (no byte copy). Implicit on purpose:
  /// legacy `ctx().broadcast(w.take())` call sites keep working and stay
  /// zero-copy.
  Payload(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : rep_(new Rep(std::move(bytes))) {
    bump(stats().adopted);
  }

  Payload(std::initializer_list<std::uint8_t> il)
      : Payload(std::vector<std::uint8_t>(il)) {}

  Payload(const Payload& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : rep_(o.rep_) { o.rep_ = nullptr; }
  Payload& operator=(const Payload& o) noexcept {
    if (this != &o) {
      release();
      rep_ = o.rep_;
      if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      release();
      rep_ = o.rep_;
      o.rep_ = nullptr;
    }
    return *this;
  }
  ~Payload() { release(); }

  /// Freeze the bytes of a reusable scratch writer: one exact-size buffer
  /// copy out of the scratch, after which the writer may be clear()ed and
  /// reused. This is the materialization step of the single encode, not a
  /// payload-to-payload buffer copy.
  static Payload freeze(const serde::Writer& scratch) {
    Payload p;
    const auto bytes = scratch.span();
    p.rep_ = new Rep(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    bump(stats().frozen);
    return p;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return rep_ ? std::span<const std::uint8_t>(rep_->bytes) : std::span<const std::uint8_t>{};
  }
  // NOLINTNEXTLINE(google-explicit-constructor): payloads read as byte spans.
  operator std::span<const std::uint8_t>() const noexcept { return bytes(); }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return rep_ ? rep_->bytes.data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rep_ ? rep_->bytes.size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::uint8_t front() const { return rep_->bytes.front(); }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return rep_->bytes[i]; }

  /// Number of owners of the underlying buffer (diagnostics / tests). A
  /// racing snapshot under the threaded runner; exact when quiescent.
  [[nodiscard]] long use_count() const noexcept {
    return rep_ != nullptr ? static_cast<long>(rep_->refs.load(std::memory_order_relaxed)) : 0;
  }

  /// Attach the sender-side decoded form of these bytes. Only legal at the
  /// site that encoded the payload (bytes and cache must agree by
  /// construction), *before* the payload is published to any other thread
  /// (write-once-before-publish, see the header contract) -- deliberately
  /// non-const, so receivers holding the `const Payload&` from on_message
  /// cannot poison the shared cache.
  template <class M>
  void attach_decoded(M msg) {
    if (rep_ == nullptr) return;
    rep_->cache = std::make_shared<const M>(std::move(msg));
    rep_->cache_type = &typeid(M);
    bump(stats().caches_attached);
  }

  /// Tag this payload with a routing key (shard index) before publishing.
  /// Same write-once-before-publish contract as attach_decoded: set by the
  /// creating thread only, before any other thread can see the payload, and
  /// immutable afterwards. Deliberately non-const for the same reason.
  void set_route(std::uint32_t route) noexcept {
    if (rep_ != nullptr) rep_->route = route;
  }

  /// The routing key attached at the sending site, 0 if never tagged.
  [[nodiscard]] std::uint32_t route() const noexcept { return rep_ ? rep_->route : 0; }

  /// The decode cache, if a cache of exactly type M is attached.
  template <class M>
  [[nodiscard]] const M* cached() const noexcept {
    if (rep_ && rep_->cache_type != nullptr && *rep_->cache_type == typeid(M)) {
      bump(stats().cache_hits);
      return static_cast<const M*>(rep_->cache.get());
    }
    bump(stats().cache_misses);
    return nullptr;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& counter) noexcept {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  // Intrusive atomic refcount. Increments are relaxed (an existing owner
  // keeps the buffer alive while the count is bumped); the decrement is
  // acq_rel so the final owner's delete observes every other thread's last
  // use -- the shared_ptr discipline.
  struct Rep {
    explicit Rep(std::vector<std::uint8_t> b) : bytes(std::move(b)) {}
    std::atomic<std::uint32_t> refs{1};
    std::vector<std::uint8_t> bytes;
    // Decode cache (type-erased so common/ does not depend on protocol
    // message types). Attached once, sender-side, before the payload is
    // published (see the thread-safety contract above).
    std::shared_ptr<const void> cache;
    const std::type_info* cache_type{nullptr};
    // Routing key (shard index) for multiplexed hosts. Write-once,
    // sender-side, before publication (see set_route); 0 = untagged.
    std::uint32_t route{0};
  };

  void release() noexcept {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
    rep_ = nullptr;
  }

  Rep* rep_{nullptr};
};

/// The zero-copy encode protocol shared by every message family
/// (core::Message, multishot::MsMessage, ...): serialize into the reusable
/// scratch writer, freeze once, and -- on the broadcast path only -- attach
/// the decoded form beside the bytes so receivers skip re-parsing. Named
/// wrappers (core::encode_payload, multishot::encode_ms_payload) delegate
/// here so the freeze/cache rules cannot diverge between protocols.
template <class MessageVariant>
Payload encode_to_payload(const MessageVariant& m, serde::Writer& scratch, bool cache_decoded) {
  scratch.clear();
  std::visit([&scratch](const auto& msg) { msg.encode(scratch); }, m);
  Payload p = Payload::freeze(scratch);
  if (cache_decoded) p.attach_decoded(m);
  return p;
}

}  // namespace tbft

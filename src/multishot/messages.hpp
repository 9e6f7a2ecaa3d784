#pragma once
// Wire messages of Multi-shot TetraBFT (paper §6). One vote message per slot
// serves as vote-1 for that slot and, implicitly, vote-2..4 for the three
// preceding slots (Fig. 2); suggest/proof/view-change are the per-slot
// analogues of the single-shot messages, sent only on view change.

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "multishot/block.hpp"
#include "multishot/finalized_store.hpp"

namespace tbft::multishot {

enum class MsType : std::uint8_t {
  Proposal = 11,
  Vote = 12,
  Suggest = 13,
  Proof = 14,
  ViewChange = 15,
  SyncRequest = 17,
  SyncChunk = 18,
  ForwardTx = 19,
  CheckpointRequest = 20,
  CheckpointChunk = 21,
  BlockRequest = 22,
  BlockReply = 23,
};

struct MsProposal {
  Slot slot{0};
  View view{0};
  Block block;

  friend bool operator==(const MsProposal&, const MsProposal&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::Proposal));
    w.u64(slot);
    w.i64(view);
    block.encode(w);
  }
  static MsProposal decode(serde::Reader& r) {
    MsProposal m;
    m.slot = r.u64();
    m.view = r.i64();
    m.block = Block::decode(r);
    if (m.view < 0 || m.slot < 1 || m.block.slot != m.slot) r.fail();
    return m;
  }
};

struct MsVote {
  Slot slot{0};
  View view{0};
  std::uint64_t block_hash{0};

  friend bool operator==(const MsVote&, const MsVote&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::Vote));
    w.u64(slot);
    w.i64(view);
    w.u64(block_hash);
  }
  static MsVote decode(serde::Reader& r) {
    MsVote m;
    m.slot = r.u64();
    m.view = r.i64();
    m.block_hash = r.u64();
    if (m.view < 0 || m.slot < 1) r.fail();
    return m;
  }
};

/// Per-slot suggest: the sender's implicit vote-2/prev-vote-2/vote-3 history
/// for this slot (values are block hashes).
struct MsSuggest {
  Slot slot{0};
  View view{0};
  core::VoteRef vote2;
  core::VoteRef prev_vote2;
  core::VoteRef vote3;

  friend bool operator==(const MsSuggest&, const MsSuggest&) = default;

  [[nodiscard]] core::Suggest as_core() const { return {view, vote2, prev_vote2, vote3}; }

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::Suggest));
    w.u64(slot);
    w.i64(view);
    vote2.encode(w);
    prev_vote2.encode(w);
    vote3.encode(w);
  }
  static MsSuggest decode(serde::Reader& r) {
    MsSuggest m;
    m.slot = r.u64();
    m.view = r.i64();
    m.vote2 = core::VoteRef::decode(r);
    m.prev_vote2 = core::VoteRef::decode(r);
    m.vote3 = core::VoteRef::decode(r);
    if (m.view < 1 || m.slot < 1) r.fail();
    return m;
  }
};

struct MsProof {
  Slot slot{0};
  View view{0};
  core::VoteRef vote1;
  core::VoteRef prev_vote1;
  core::VoteRef vote4;

  friend bool operator==(const MsProof&, const MsProof&) = default;

  [[nodiscard]] core::Proof as_core() const { return {view, vote1, prev_vote1, vote4}; }

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::Proof));
    w.u64(slot);
    w.i64(view);
    vote1.encode(w);
    prev_vote1.encode(w);
    vote4.encode(w);
  }
  static MsProof decode(serde::Reader& r) {
    MsProof m;
    m.slot = r.u64();
    m.view = r.i64();
    m.vote1 = core::VoteRef::decode(r);
    m.prev_vote1 = core::VoteRef::decode(r);
    m.vote4 = core::VoteRef::decode(r);
    if (m.view < 1 || m.slot < 1) r.fail();
    return m;
  }
};

/// "Change slot `slot` (and everything after it) to view `view`."
struct MsViewChange {
  Slot slot{0};
  View view{0};

  friend bool operator==(const MsViewChange&, const MsViewChange&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::ViewChange));
    w.u64(slot);
    w.i64(view);
  }
  static MsViewChange decode(serde::Reader& r) {
    MsViewChange m;
    m.slot = r.u64();
    m.view = r.i64();
    if (m.view < 1 || m.slot < 1) r.fail();
    return m;
  }
};

/// Ranged catch-up: "stream me finalized blocks [from, upto)". Broadcast --
/// in the unauthenticated model a block is only adopted once f+1 distinct
/// senders vouch for it, so the requester needs the range from f+1 peers
/// anyway; a timeout simply re-broadcasts from the current frontier
/// (re-requesting from whichever peers are alive).
struct MsSyncRequest {
  Slot from{0};  // first wanted slot (requester's first unfinalized)
  Slot upto{0};  // exclusive end of the wanted range (pipeline cursor)

  friend bool operator==(const MsSyncRequest&, const MsSyncRequest&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::SyncRequest));
    w.u64(from);
    w.u64(upto);
  }
  static MsSyncRequest decode(serde::Reader& r) {
    MsSyncRequest m;
    m.from = r.u64();
    m.upto = r.u64();
    if (m.from < 1 || m.upto <= m.from) r.fail();
    return m;
  }
};

/// The one finalized-block reply: up to kMaxBlocksPerChunk consecutive
/// finalized blocks starting at `start`, plus the responder's frontier (the
/// continuation cursor: the requester keeps re-requesting until it reaches
/// it). It answers a range request, one chunk per slice, and a view change
/// for an already-finalized slot, with a few blocks from that slot (frontier
/// discovery). A straggler adopts a block once f+1 distinct senders claim
/// it (>= 1 honest claim, and honest finalized chains agree): the
/// multi-shot analogue of the single-shot Decide. An empty chunk
/// (start == 0) is a refusal-with-hint: the responder's tail no longer
/// holds the requested range (compacted), or it has nothing finalized
/// there -- the frontier still tells the requester where the tip is.
struct MsSyncChunk {
  Slot frontier{0};    // responder's first unfinalized slot
  Slot tail_first{1};  // first slot still resident in the responder's tail
  Slot start{0};       // slot of blocks[0]; 0 when the chunk carries no blocks
  std::vector<Block> blocks;

  friend bool operator==(const MsSyncChunk&, const MsSyncChunk&) = default;

  static constexpr std::size_t kMaxBlocksPerChunk = 16;
  /// Encoded size of a full chunk whose blocks each carry `payload_bytes`:
  /// the largest message a replica sends when no block exceeds that payload.
  [[nodiscard]] static constexpr std::uint64_t max_encoded_bytes(
      std::uint64_t payload_bytes) noexcept {
    const std::uint64_t block = 8 + 8 + 4 + serde::varint_size(payload_bytes) + payload_bytes;
    return 1 + 3 * 8 + serde::varint_size(kMaxBlocksPerChunk) + kMaxBlocksPerChunk * block;
  }

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::SyncChunk));
    w.u64(frontier);
    w.u64(tail_first);
    w.u64(start);
    w.varint(blocks.size());
    for (const auto& b : blocks) b.encode(w);
  }
  static MsSyncChunk decode(serde::Reader& r) {
    MsSyncChunk m;
    m.frontier = r.u64();
    m.tail_first = r.u64();
    m.start = r.u64();
    const auto count = r.varint();
    // tail_first locates the responder's servable range [tail_first,
    // frontier): a refusal hint carrying it lets the requester decide
    // whether any peer's tail can still cover the gap, or checkpoint state
    // transfer is the only way back.
    if (m.frontier < 1 || m.tail_first < 1 || m.tail_first > m.frontier ||
        count > kMaxBlocksPerChunk || (m.start == 0 && count > 0)) {
      r.fail();
      return m;
    }
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      Block b = Block::decode(r);
      // Chunks are consecutive by construction; enforcing it at decode keeps
      // the claim layer from tracking garbage slot numbers.
      if (b.slot != m.start + i) {
        r.fail();
        return m;
      }
      m.blocks.push_back(std::move(b));
    }
    return m;
  }
};

/// Single-hop client-request relay: a transaction submitted to a non-leader
/// is forwarded to the leader that will propose next, so an idle chain
/// resumes in ~1 delta instead of waiting out a ~9 delta view change.
/// Receivers dedup by content hash and never re-forward. The stamp is the
/// sender's first unfinalized slot: a relay that arrives too far behind the
/// receiver's chain for the commit index to still dedup it is dropped.
struct MsForwardTx {
  std::vector<std::uint8_t> tx;
  Slot first_unfinalized{0};

  friend bool operator==(const MsForwardTx&, const MsForwardTx&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::ForwardTx));
    w.bytes(tx);
    w.varint(first_unfinalized);
  }
  static MsForwardTx decode(serde::Reader& r) {
    MsForwardTx m;
    m.tx = r.bytes();
    m.first_unfinalized = r.varint();
    if (m.tx.empty()) r.fail();  // empty = indistinguishable from filler
    return m;
  }
};

/// Checkpoint state transfer, requester side: "serve me your checkpoint
/// recomputed at anchor slot `at`". Broadcast by a node whose gap reaches
/// below every peer's compacted tail (range sync refused everywhere): the
/// requester picks an anchor servable by >= f+1 peers from their refusal
/// hints, and installs the answer only once f+1 senders vouch for a
/// byte-identical state (unauthenticated model: one honest voucher).
struct MsCheckpointRequest {
  Slot at{0};  // requested anchor: responders serve checkpoint_at(at)

  friend bool operator==(const MsCheckpointRequest&, const MsCheckpointRequest&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::CheckpointRequest));
    w.u64(at);
  }
  static MsCheckpointRequest decode(serde::Reader& r) {
    MsCheckpointRequest m;
    m.at = r.u64();
    if (m.at < 1) r.fail();
    return m;
  }
};

/// One slice of a checkpoint transfer: the checkpoint recomputed at the
/// requested anchor, the identity of the full commit-state blob (hash +
/// size, the vouching unit), and `data` = blob bytes at `offset`. Small
/// states fit one chunk; large ones stream.
struct MsCheckpointChunk {
  Checkpoint cp{};
  std::uint64_t state_hash{0};  // fnv1a64 over the whole commit-state blob
  std::uint64_t state_size{0};  // total blob bytes
  std::uint64_t offset{0};      // position of data[0] within the blob
  std::vector<std::uint8_t> data;

  friend bool operator==(const MsCheckpointChunk&, const MsCheckpointChunk&) = default;

  static constexpr std::size_t kMaxChunkBytes = 4096;
  /// Byzantine resource-exhaustion bound on the claimed blob size (matches
  /// the commit-index install bound; honest states are far smaller).
  static constexpr std::uint64_t kMaxStateBytes = std::uint64_t{1} << 26;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::CheckpointChunk));
    cp.encode(w);
    w.u64(state_hash);
    w.u64(state_size);
    w.u64(offset);
    w.bytes(data);
  }
  static MsCheckpointChunk decode(serde::Reader& r) {
    MsCheckpointChunk m;
    m.cp = Checkpoint::decode(r);
    m.state_hash = r.u64();
    m.state_size = r.u64();
    m.offset = r.u64();
    m.data = r.bytes();
    if (m.cp.slot < 1 || m.state_size < 1 || m.state_size > kMaxStateBytes ||
        m.data.empty() || m.data.size() > kMaxChunkBytes ||
        m.data.size() > m.state_size || m.offset > m.state_size - m.data.size()) {
      r.fail();
    }
    return m;
  }
};

/// Content recovery for an *unfinalized* slot: "send me the block hashing to
/// `block_hash` at `slot`". A quorum of votes can notarize a hash whose
/// content this node never received (votes carry hashes only), and Rule 1
/// can force a leader to re-propose a previously proposed value it does not
/// hold -- both dead-end without the bytes, because MsSyncChunk serves
/// finalized blocks only. The request is broadcast; any peer holding
/// the block (candidate store or finalized chain) answers, and the
/// content-addressed hash authenticates the reply: one honest copy anywhere
/// in the network unblocks the slot.
struct MsBlockRequest {
  Slot slot{0};
  std::uint64_t block_hash{0};

  friend bool operator==(const MsBlockRequest&, const MsBlockRequest&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::BlockRequest));
    w.u64(slot);
    w.u64(block_hash);
  }
  static MsBlockRequest decode(serde::Reader& r) {
    MsBlockRequest m;
    m.slot = r.u64();
    m.block_hash = r.u64();
    if (m.slot < 1) r.fail();
    return m;
  }
};

/// Answer to MsBlockRequest: the full block. The receiver recomputes the
/// hash and accepts only a block it is actually waiting for (its recorded
/// notarization or requested recovery hash), so Byzantine replies cannot
/// plant content nobody asked about.
struct MsBlockReply {
  Slot slot{0};
  Block block;

  friend bool operator==(const MsBlockReply&, const MsBlockReply&) = default;

  void encode(serde::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(MsType::BlockReply));
    w.u64(slot);
    block.encode(w);
  }
  static MsBlockReply decode(serde::Reader& r) {
    MsBlockReply m;
    m.slot = r.u64();
    m.block = Block::decode(r);
    if (m.slot < 1 || m.block.slot != m.slot) r.fail();
    return m;
  }
};

using MsMessage = std::variant<MsProposal, MsVote, MsSuggest, MsProof, MsViewChange,
                               MsSyncRequest, MsSyncChunk, MsForwardTx, MsCheckpointRequest,
                               MsCheckpointChunk, MsBlockRequest, MsBlockReply>;

std::vector<std::uint8_t> encode_ms(const MsMessage& m);

/// Zero-copy encode into a reusable scratch writer (one freeze, shared by
/// all recipients). `cache_decoded` attaches the decoded message beside the
/// bytes -- broadcast path only; see core::encode_payload for the rules.
Payload encode_ms_payload(const MsMessage& m, serde::Writer& scratch, bool cache_decoded);

std::optional<MsMessage> decode_ms(std::span<const std::uint8_t> payload);

}  // namespace tbft::multishot

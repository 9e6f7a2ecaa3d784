// Wire-format tests for the multi-shot message set: roundtrips, malformed
// input rejection, and the decode bounds that protect against Byzantine
// resource-exhaustion (SyncChunk block caps, slot-0 rejection), plus the
// receiver-side expiry of stale relay stamps.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ms_cluster_helpers.hpp"
#include "multishot/messages.hpp"

namespace tbft::multishot {
namespace {

Block sample_block(Slot s = 3) {
  Block b;
  b.slot = s;
  b.parent_hash = 0xABCDEF;
  b.proposer = 2;
  b.payload = {9, 8, 7};
  return b;
}

template <class T>
T roundtrip(const T& msg) {
  const auto bytes = encode_ms(MsMessage{msg});
  const auto decoded = decode_ms(bytes);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(MsMessages, ProposalRoundtrip) {
  const MsProposal m{3, 1, sample_block()};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(MsMessages, VoteRoundtrip) {
  const MsVote m{7, 2, 0x1234567890ULL};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(MsMessages, SuggestAndProofRoundtrip) {
  MsSuggest s;
  s.slot = 4;
  s.view = 2;
  s.vote2 = core::VoteRef{1, Value{11}};
  s.prev_vote2 = core::VoteRef{};
  s.vote3 = core::VoteRef{0, Value{12}};
  EXPECT_EQ(roundtrip(s), s);

  MsProof p;
  p.slot = 4;
  p.view = 2;
  p.vote1 = core::VoteRef{1, Value{11}};
  p.prev_vote1 = core::VoteRef{0, Value{13}};
  p.vote4 = core::VoteRef{};
  EXPECT_EQ(roundtrip(p), p);
}

TEST(MsMessages, ViewChangeRoundtrip) {
  const MsViewChange m{5, 3};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(MsMessages, RetiredTag16IsRejected) {
  // Tag 16 once carried a second finalized-block reply; view changes are now
  // answered with MsSyncChunk, so a well-formed frame of the old layout is
  // an unknown message.
  serde::Writer w;
  w.u8(16);
  w.u64(1);  // frontier
  w.varint(0);
  EXPECT_FALSE(decode_ms(w.data()).has_value());
}

TEST(MsMessages, SyncRequestRoundtripAndBounds) {
  const MsSyncRequest m{5, 37};
  EXPECT_EQ(roundtrip(m), m);
  // Empty or inverted ranges are malformed.
  for (const auto& bad : {MsSyncRequest{5, 5}, MsSyncRequest{5, 2}, MsSyncRequest{0, 4}}) {
    const auto bytes = encode_ms(MsMessage{bad});
    EXPECT_FALSE(decode_ms(bytes).has_value());
  }
}

TEST(MsMessages, SyncChunkRoundtrip) {
  MsSyncChunk m;
  m.frontier = 9;
  m.tail_first = 2;
  m.start = 3;
  m.blocks.push_back(sample_block(3));
  m.blocks.push_back(sample_block(4));
  EXPECT_EQ(roundtrip(m), m);
  // Frontier-only refusal chunk (no blocks) is well-formed: it advertises
  // the responder's servable range [tail_first, frontier).
  MsSyncChunk hint;
  hint.frontier = 9;
  hint.tail_first = 5;
  EXPECT_EQ(roundtrip(hint), hint);
}

TEST(MsMessages, SyncChunkFrontierZeroRejected) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(MsType::SyncChunk));
  w.u64(0);  // frontier: first unfinalized slot is always >= 1
  w.u64(1);  // tail_first
  w.u64(0);  // start: a refusal hint
  w.varint(0);
  EXPECT_FALSE(decode_ms(w.data()).has_value());
}

TEST(MsMessages, SyncChunkBadTailFirstRejected) {
  // tail_first must be a valid slot no later than the frontier.
  MsSyncChunk m;
  m.frontier = 9;
  m.tail_first = 10;  // claims a tail starting past its own frontier
  auto bytes = encode_ms(MsMessage{m});
  EXPECT_FALSE(decode_ms(bytes).has_value());
  m.tail_first = 0;  // slots start at 1
  bytes = encode_ms(MsMessage{m});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, SyncChunkNonConsecutiveSlotsRejected) {
  MsSyncChunk m;
  m.frontier = 9;
  m.start = 3;
  m.blocks.push_back(sample_block(3));
  m.blocks.push_back(sample_block(5));  // gap: decode must refuse
  const auto bytes = encode_ms(MsMessage{m});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, SyncChunkBlockCapEnforced) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(MsType::SyncChunk));
  w.u64(9);  // frontier
  w.u64(1);  // tail_first
  w.u64(1);  // start
  w.varint(MsSyncChunk::kMaxBlocksPerChunk + 1);
  EXPECT_FALSE(decode_ms(w.data()).has_value());
}

TEST(MsMessages, CheckpointRequestRoundtripAndBounds) {
  const MsCheckpointRequest m{42};
  EXPECT_EQ(roundtrip(m), m);
  // Anchor slot 0 is below genesis.
  const auto bytes = encode_ms(MsMessage{MsCheckpointRequest{0}});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

MsCheckpointChunk sample_ckpt_chunk() {
  MsCheckpointChunk m;
  m.cp.slot = 40;
  m.cp.chain_hash = 0xC0FFEE;
  m.cp.tx_count = 123;
  m.cp.boundary_hash = 0xB0A7;
  m.state_hash = 0x5AFE;
  m.state_size = 8;
  m.offset = 4;
  m.data = {1, 2, 3, 4};
  return m;
}

TEST(MsMessages, CheckpointChunkRoundtrip) {
  const MsCheckpointChunk m = sample_ckpt_chunk();
  EXPECT_EQ(roundtrip(m), m);
}

TEST(MsMessages, CheckpointChunkBoundsEnforced) {
  // Each mutation makes the chunk internally inconsistent or oversized;
  // decode must refuse all of them before any state transfer bookkeeping.
  const MsCheckpointChunk good = sample_ckpt_chunk();
  auto reject = [](MsCheckpointChunk bad) {
    const auto bytes = encode_ms(MsMessage{bad});
    EXPECT_FALSE(decode_ms(bytes).has_value());
  };
  {
    MsCheckpointChunk m = good;
    m.cp.slot = 0;  // checkpoints cover finalized slots >= 1
    reject(m);
  }
  {
    MsCheckpointChunk m = good;
    m.data.clear();  // chunks always carry bytes
    reject(m);
  }
  {
    MsCheckpointChunk m = good;
    m.offset = m.state_size;  // data would land past the end of the blob
    reject(m);
  }
  {
    MsCheckpointChunk m = good;
    m.state_size = 2;  // data longer than the whole claimed blob
    reject(m);
  }
  {
    MsCheckpointChunk m = good;
    m.state_size = MsCheckpointChunk::kMaxStateBytes + 1;  // DoS-sized claim
    m.offset = 0;
    reject(m);
  }
  {
    MsCheckpointChunk m = good;
    m.data.assign(MsCheckpointChunk::kMaxChunkBytes + 1, 0x55);
    m.state_size = m.data.size() + 1;
    m.offset = 0;  // over the per-chunk byte cap
    reject(m);
  }
}

TEST(MsMessages, ForwardTxRoundtripAndEmptyRejected) {
  const MsForwardTx m{{0xDE, 0xAD, 0xBE, 0xEF}, 7};
  EXPECT_EQ(roundtrip(m), m);
  const auto bytes = encode_ms(MsMessage{MsForwardTx{}});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, ForwardTxStampRoundtripsAndATruncatedStampIsRejected) {
  // A multi-byte varint stamp survives the roundtrip...
  const MsForwardTx m{{0x01, 0x02}, 300000};
  EXPECT_EQ(roundtrip(m), m);
  // ...and a relay cut anywhere inside its stamp fails to decode.
  const auto bytes = encode_ms(MsMessage{m});
  const std::size_t stamp_at = bytes.size() - serde::varint_size(m.first_unfinalized);
  for (std::size_t len = stamp_at; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(decode_ms(cut).has_value()) << "truncated to " << len << " bytes";
  }
}

/// Sends the receiver one relay per stamp at start, as a sender whose chain
/// sits at that slot would.
class RelaySender : public sim::ProtocolNode {
 public:
  RelaySender(NodeId dst, std::vector<MsForwardTx> relays)
      : dst_(dst), relays_(std::move(relays)) {}
  void on_start() override {
    for (const auto& m : relays_) ctx().send(dst_, Payload(encode_ms(MsMessage{m})));
  }
  void on_message(NodeId, const Payload&) override {}
  void on_timer(runtime::TimerId) override {}

 private:
  NodeId dst_;
  std::vector<MsForwardTx> relays_;
};

TEST(MsMessages, ReceiverDropsARelayStampedPastTheDedupHorizon) {
  // Node 0 resumes at slot 5001. A relay stamped more than
  // kDedupHorizon - kWindow below that could have a twin committed where
  // node 0's commit index no longer looks, so it is dropped and counted;
  // a relay stamped at the edge of that bound is admitted.
  constexpr Slot kResume = 5000;
  constexpr Slot kBound = kDedupHorizon - ChainStore::kWindow;
  const MsForwardTx stale{{0xA1}, kResume + 1 - kBound - 1};
  const MsForwardTx fresh{{0xB2}, kResume + 1 - kBound};
  test::MsClusterOptions opts;
  opts.make_node = [&](NodeId id,
                       const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 1) return std::make_unique<RelaySender>(0, std::vector{stale, fresh});
    if (id != 0) return nullptr;
    auto node = std::make_unique<MultishotNode>(cfg);
    node->restore_chain(Checkpoint{kResume, 0x1234, 0, 0x5678}, {}, {});
    return node;
  };
  auto cluster = test::make_ms_cluster(opts);
  cluster.sim->run_until(2 * opts.delta_actual);

  const auto& node = *cluster.nodes[0];
  ASSERT_EQ(node.chain().first_unfinalized(), kResume + 1);
  auto& metrics = cluster.sim->metrics();
  EXPECT_EQ(metrics.counter("multishot.forward.expired").value(), 1u);
  EXPECT_EQ(metrics.counter("multishot.forward.received").value(), 1u);
  EXPECT_FALSE(node.mempool().contains(fnv1a64(stale.tx), stale.tx));
  EXPECT_TRUE(node.mempool().contains(fnv1a64(fresh.tx), fresh.tx));
}

TEST(MsMessages, BlockRequestRoundtripAndSlotZeroRejected) {
  const MsBlockRequest m{6, 0xFEEDFACE12345678ULL};
  EXPECT_EQ(roundtrip(m), m);
  auto bytes = encode_ms(MsMessage{MsBlockRequest{1, 42}});
  for (int i = 1; i <= 8; ++i) bytes[i] = 0;
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, BlockReplyRoundtripAndSlotMismatchRejected) {
  const MsBlockReply m{3, sample_block(3)};
  EXPECT_EQ(roundtrip(m), m);
  // The envelope slot must match the block's own slot (content-addressed
  // recovery never relabels blocks).
  const auto bytes = encode_ms(MsMessage{MsBlockReply{4, sample_block(3)}});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, SlotZeroRejected) {
  auto bytes = encode_ms(MsMessage{MsVote{1, 0, 5}});
  // slot is the first u64 after the tag; zero it.
  for (int i = 1; i <= 8; ++i) bytes[i] = 0;
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, ViewZeroSuggestRejected) {
  // suggest/proof only exist for views >= 1.
  MsSuggest s;
  s.slot = 1;
  s.view = 1;
  auto bytes = encode_ms(MsMessage{s});
  serde::Writer view0;
  view0.i64(0);
  std::copy(view0.data().begin(), view0.data().end(), bytes.begin() + 9);
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, ProposalSlotMismatchRejected) {
  // The envelope slot and the embedded block's slot must agree.
  MsProposal m{3, 0, sample_block(4)};
  const auto bytes = encode_ms(MsMessage{m});
  EXPECT_FALSE(decode_ms(bytes).has_value());
}

TEST(MsMessages, TruncatedAndGarbageRejected) {
  auto bytes = encode_ms(MsMessage{MsVote{1, 0, 5}});
  bytes.pop_back();
  EXPECT_FALSE(decode_ms(bytes).has_value());

  bytes = encode_ms(MsMessage{MsViewChange{1, 1}});
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_ms(bytes).has_value());

  EXPECT_FALSE(decode_ms({}).has_value());
  const std::uint8_t junk[] = {0x77, 1, 2, 3};
  EXPECT_FALSE(decode_ms(junk).has_value());
}

TEST(MsMessages, BlockHashChangesWithPayload) {
  Block a = sample_block();
  Block b = a;
  b.payload.push_back(1);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.value().id, a.hash());
}

TEST(MsMessages, AsCoreConversionPreservesFields) {
  MsSuggest s;
  s.view = 5;
  s.vote2 = core::VoteRef{3, Value{1}};
  s.prev_vote2 = core::VoteRef{2, Value{2}};
  s.vote3 = core::VoteRef{1, Value{1}};
  const auto c = s.as_core();
  EXPECT_EQ(c.view, 5);
  EXPECT_EQ(c.vote2, s.vote2);
  EXPECT_EQ(c.prev_vote2, s.prev_vote2);
  EXPECT_EQ(c.vote3, s.vote3);
}

}  // namespace
}  // namespace tbft::multishot

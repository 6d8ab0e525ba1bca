#include "consensus/mempool.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "consensus/request_tag.h"
#include "ser/serializer.h"

namespace lumiere::consensus {
namespace {

/// The commands of a batch payload, in order.
std::vector<std::string> commands(std::span<const std::uint8_t> payload) {
  std::vector<std::string> out;
  for_each_command(payload, [&out](std::span<const std::uint8_t> command) {
    out.emplace_back(command.begin(), command.end());
  });
  return out;
}

TEST(MempoolTest, BatchRoundTrip) {
  Mempool pool;
  EXPECT_EQ(pool.add("set x 1"), Admission::kAccepted);
  EXPECT_EQ(pool.add("set y 2"), Admission::kAccepted);
  const auto batch = pool.next_batch();
  EXPECT_EQ(pool.pending(), 0U);
  const auto cmds = commands(batch);
  ASSERT_EQ(cmds.size(), 2U);
  EXPECT_EQ(std::string(cmds[0].begin(), cmds[0].end()), "set x 1");
  EXPECT_EQ(std::string(cmds[1].begin(), cmds[1].end()), "set y 2");
}

TEST(MempoolTest, EmptyBatch) {
  Mempool pool;
  EXPECT_TRUE(pool.next_batch().empty());
  EXPECT_TRUE(commands({}).empty());
}

TEST(MempoolTest, RespectsBatchByteLimit) {
  Mempool pool(32);
  pool.add(std::string(20, 'a'));
  pool.add(std::string(20, 'b'));
  const auto first = pool.next_batch();
  EXPECT_EQ(commands(first).size(), 1U) << "second command exceeds the limit";
  EXPECT_EQ(pool.pending(), 1U);
  const auto second = pool.next_batch();
  EXPECT_EQ(commands(second).size(), 1U);
}

TEST(MempoolTest, RespectsBatchCountLimit) {
  Mempool pool(MempoolLimits{.max_batch_count = 3});
  for (int i = 0; i < 5; ++i) pool.add("cmd" + std::to_string(i));
  EXPECT_EQ(commands(pool.next_batch()).size(), 3U);
  EXPECT_EQ(commands(pool.next_batch()).size(), 2U);
}

TEST(MempoolTest, OversizedCommandRejectedAtAdd) {
  // The explicit policy (a command that can never fit a batch is a
  // client error, not a payload): rejected at add(), never silently
  // emitted oversize as the earlier drain loop did.
  Mempool pool(8);
  EXPECT_EQ(pool.add(std::string(100, 'z')), Admission::kOversized);
  EXPECT_EQ(pool.pending(), 0U);
  EXPECT_EQ(pool.rejected_oversized(), 1U);
  EXPECT_TRUE(pool.next_batch().empty());
  // Exactly at the budget (command + 4-byte frame) is still admissible.
  Mempool exact(8);
  EXPECT_EQ(exact.add(std::string(4, 'y')), Admission::kAccepted);
  EXPECT_EQ(commands(exact.next_batch()).size(), 1U);
}

TEST(MempoolTest, Fifo) {
  Mempool pool;
  for (int i = 0; i < 10; ++i) pool.add(std::string(1, static_cast<char>('a' + i)));
  const auto cmds = commands(pool.next_batch());
  ASSERT_EQ(cmds.size(), 10U);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cmds[i][0], static_cast<std::uint8_t>('a' + i));
}

TEST(MempoolTest, BoundedCapacityByCount) {
  Mempool pool(MempoolLimits{.max_pending_count = 2});
  EXPECT_EQ(pool.add("a"), Admission::kAccepted);
  EXPECT_EQ(pool.add("b"), Admission::kAccepted);
  EXPECT_EQ(pool.add("c"), Admission::kFull);
  EXPECT_EQ(pool.pending(), 2U);
  EXPECT_EQ(pool.rejected_full(), 1U);
  (void)pool.next_batch();
  EXPECT_EQ(pool.add("c"), Admission::kAccepted);
}

TEST(MempoolTest, BoundedCapacityByBytes) {
  Mempool pool(MempoolLimits{.max_pending_bytes = 10});
  EXPECT_EQ(pool.add(std::string(6, 'a')), Admission::kAccepted);
  EXPECT_EQ(pool.add(std::string(6, 'b')), Admission::kFull) << "6 + 6 > 10";
  EXPECT_EQ(pool.add(std::string(4, 'c')), Admission::kAccepted) << "6 + 4 fits";
  EXPECT_EQ(pool.pending_bytes(), 10U);
}

TEST(MempoolTest, DuplicateSuppression) {
  Mempool pool(MempoolLimits{.suppress_duplicates = true});
  EXPECT_EQ(pool.add("same"), Admission::kAccepted);
  EXPECT_EQ(pool.add("same"), Admission::kDuplicate);
  EXPECT_EQ(pool.pending(), 1U);
  // Once drained-for-good (legacy drain), the bytes may be admitted anew.
  (void)pool.next_batch();
  EXPECT_EQ(pool.add("same"), Admission::kAccepted);
  // The default keeps the legacy add-anything semantics.
  Mempool dups;
  EXPECT_EQ(dups.add("same"), Admission::kAccepted);
  EXPECT_EQ(dups.add("same"), Admission::kAccepted);
}

TEST(MempoolTest, DuplicateSuppressedWhileInFlight) {
  Mempool pool(MempoolLimits{.suppress_duplicates = true});
  pool.add("cmd");
  const auto batch = pool.next_batch(/*view=*/5);
  EXPECT_EQ(pool.in_flight(), 1U);
  EXPECT_EQ(pool.add("cmd"), Admission::kDuplicate) << "leased commands are still live";
  // The commit acks the lease and releases the digest.
  pool.on_commit(5, batch);
  EXPECT_EQ(pool.in_flight(), 0U);
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.add("cmd"), Admission::kAccepted);
}

TEST(MempoolTest, AbandonedLeaseRequeuesInOrder) {
  Mempool pool;
  pool.add("first");
  pool.add("second");
  const auto lost = pool.next_batch(/*view=*/3);
  EXPECT_EQ(commands(lost).size(), 2U);
  pool.add("third");
  // A commit at view 7 whose payload does not contain the leased
  // commands proves the view-3 proposal abandoned: both requeue at the
  // front, ahead of "third", preserving their order.
  Mempool other;
  other.add("unrelated");
  pool.on_commit(7, other.next_batch());
  EXPECT_EQ(pool.requeued(), 2U);
  EXPECT_EQ(pool.in_flight(), 0U);
  const auto cmds = commands(pool.next_batch());
  ASSERT_EQ(cmds.size(), 3U);
  EXPECT_EQ(std::string(cmds[0].begin(), cmds[0].end()), "first");
  EXPECT_EQ(std::string(cmds[1].begin(), cmds[1].end()), "second");
  EXPECT_EQ(std::string(cmds[2].begin(), cmds[2].end()), "third");
}

TEST(MempoolTest, LeaseAboveCommittedViewSurvives) {
  Mempool pool;
  pool.add("late");
  (void)pool.next_batch(/*view=*/9);
  Mempool other;
  other.add("unrelated");
  pool.on_commit(/*view=*/7, other.next_batch());
  EXPECT_EQ(pool.in_flight(), 1U) << "a lease above the committed view may still commit";
  EXPECT_EQ(pool.requeued(), 0U);
}

TEST(MempoolTest, OneCommittedInstanceAcksOneLeasedCopy) {
  // Without duplicate suppression (the default), byte-identical commands
  // may be admitted and leased independently; a payload carrying the
  // bytes once must ack exactly one copy, and the other still requeues
  // when its own proposal is proven abandoned.
  Mempool pool;
  pool.add("twin");
  pool.add("twin");
  EXPECT_EQ(commands(pool.next_batch(/*view=*/1)).size(), 2U);
  // A commit at view 1 carrying "twin" once: exactly one leased copy is
  // acked; the other belonged to the same dead proposal and requeues.
  Mempool one;
  one.add("twin");
  pool.on_commit(1, one.next_batch());
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.requeued(), 1U);
  EXPECT_EQ(pool.pending(), 1U) << "the un-acked admitted copy must survive";
}

TEST(MempoolTest, PartialAckRequeuesOnlyTheRest) {
  Mempool pool;
  pool.add("kept");
  pool.add("dropped");
  (void)pool.next_batch(/*view=*/2);
  // A commit carrying only "kept" (e.g. an equivocating leader shipped a
  // different batch) acks it and requeues "dropped".
  Mempool partial;
  partial.add("kept");
  pool.on_commit(2, partial.next_batch());
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.requeued(), 1U);
  const auto cmds = commands(pool.next_batch());
  ASSERT_EQ(cmds.size(), 1U);
  EXPECT_EQ(std::string(cmds[0].begin(), cmds[0].end()), "dropped");
}

TEST(MempoolTest, ForEachCommandStopsAtAMalformedEntry) {
  Mempool pool;
  pool.add("whole");
  std::vector<std::uint8_t> payload = pool.next_batch();
  payload.push_back(9);  // a truncated length prefix
  EXPECT_EQ(commands(payload), std::vector<std::string>{"whole"});
}

TEST(MempoolTest, AttachedCommandMissingItsViewIsReattached) {
  Mempool pool;
  pool.add("fwd");
  EXPECT_EQ(commands(pool.attach(/*view=*/4)).size(), 1U);
  EXPECT_EQ(pool.in_flight(), 1U);
  // View 4 passed without a proposal carrying it: the next attachment
  // carries it again, ahead of anything admitted since.
  pool.add("newer");
  EXPECT_EQ(commands(pool.attach(5)), (std::vector<std::string>{"fwd", "newer"}));
  EXPECT_EQ(pool.requeued(), 1U);
}

TEST(MempoolTest, ProposedCommandWaitsForTheCommit) {
  Mempool pool(MempoolLimits{.suppress_duplicates = true});
  pool.add("fwd");
  const auto attached = pool.attach(/*view=*/4);
  // Another leader's proposal at view 5 carries it (a relay): it is no
  // longer re-attached, and the commit of that block acks it.
  pool.on_proposed(5, attached);
  EXPECT_TRUE(pool.attach(6).empty());
  EXPECT_EQ(pool.requeued(), 0U);
  pool.on_commit(5, attached);
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.in_flight(), 0U);
  EXPECT_EQ(pool.add("fwd"), Admission::kAccepted) << "the ack released the digest";
}

TEST(MempoolTest, CommandLeftOutOfItsViewsProposalWaitsOneViewForTheRelay) {
  Mempool pool;
  pool.add("late");
  (void)pool.attach(/*view=*/4);
  // lead(4) proposed without it: it arrived after the proposal, and
  // lead(4) relays it to lead(5). Re-attaching it for view 5 would only
  // race that copy.
  Mempool other;
  other.add("unrelated");
  pool.on_proposed(4, other.next_batch());
  EXPECT_TRUE(pool.attach(5).empty());
  // Proposal 5 never carried it either: the relay failed, so view 6's
  // attachment carries it again.
  EXPECT_EQ(commands(pool.attach(6)), std::vector<std::string>{"late"});
  EXPECT_EQ(pool.requeued(), 1U);
}

TEST(MempoolTest, ProposedCommandLeftOutOfTheChainRequeues) {
  Mempool pool;
  pool.add("fwd");
  pool.on_proposed(3, pool.attach(/*view=*/3));
  Mempool other;
  other.add("unrelated");
  pool.on_commit(3, other.next_batch());
  EXPECT_EQ(pool.requeued(), 1U) << "the view-3 block carrying it was abandoned";
  EXPECT_EQ(commands(pool.attach(4)), std::vector<std::string>{"fwd"});
}

/// A tagged request (consensus/request_tag.h) with a one-byte body.
std::vector<std::uint8_t> tagged(std::uint32_t client, std::uint64_t seq, std::uint8_t body) {
  ser::Writer w;
  w.u8(kRequestMagic);
  w.u32(client);
  w.u64(seq);
  w.u8(body);
  return std::move(w).take();
}

/// One command as a batch payload.
std::vector<std::uint8_t> batch_of(const std::vector<std::uint8_t>& command) {
  ser::Writer w;
  w.bytes(command);
  return std::move(w).take();
}

TEST(MempoolTest, ACommittedForgeryUnderOurTagEndsTheLease) {
  // The chain commits one command per tag, so once a forged copy of our
  // (client, seq) committed, ours would be refused forever: the commit
  // must end our lease rather than leave it re-attaching.
  Mempool pool(MempoolLimits{.suppress_duplicates = true});
  ASSERT_EQ(pool.add(tagged(7, 3, 0xAA)), Admission::kAccepted);
  (void)pool.attach(/*view=*/4);
  pool.on_proposed(4, batch_of(tagged(7, 3, 0xBB)));
  pool.on_commit(4, batch_of(tagged(7, 3, 0xBB)));
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.in_flight(), 0U);
  EXPECT_EQ(pool.requeued(), 0U);
  EXPECT_TRUE(pool.attach(5).empty());
  // Another seq of the same client is not ours to end.
  ASSERT_EQ(pool.add(tagged(7, 4, 0xAA)), Admission::kAccepted);
  (void)pool.attach(6);
  pool.on_commit(6, batch_of(tagged(7, 5, 0xAA)));
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.in_flight(), 1U);
}

TEST(MempoolTest, ACommitAcksAPendingCopy) {
  // seq 1 rode NewView(3), but the origin never saw the proposal that
  // carried it, so attach(4) queued it again. When that block commits it
  // must ack the queued copy, or the copy would be re-attached forever
  // and refused every time.
  Mempool pool(MempoolLimits{.max_batch_count = 1, .suppress_duplicates = true});
  pool.add(tagged(7, 0, 1));
  pool.add(tagged(7, 1, 1));
  (void)pool.attach(/*view=*/2);  // seq 0 sent@2
  pool.on_proposed(2, {});        // proposal 2 left it out: relayed@3
  (void)pool.attach(3);           // seq 1 sent@3
  (void)pool.attach(4);           // both expired; seq 0 sent@4, seq 1 queued
  ASSERT_EQ(pool.pending(), 1U);
  ASSERT_EQ(pool.in_flight(), 1U);
  pool.on_commit(3, batch_of(tagged(7, 1, 1)));
  EXPECT_EQ(pool.acked(), 1U);
  EXPECT_EQ(pool.pending(), 0U);
  EXPECT_EQ(pool.in_flight(), 1U) << "seq 0 still waits for its view";
  EXPECT_EQ(pool.add(tagged(7, 1, 1)), Admission::kAccepted) << "the ack released the digest";
}

TEST(MempoolTest, SpaceAvailableSignalFiresOnReleaseEdge) {
  Mempool pool(MempoolLimits{.max_pending_count = 1});
  int signals = 0;
  pool.set_space_available([&] { ++signals; });
  pool.add("a");
  // Draining without a prior rejection is not a release edge.
  (void)pool.next_batch();
  EXPECT_EQ(signals, 0);
  pool.add("a2");
  EXPECT_EQ(pool.add("b"), Admission::kFull);
  (void)pool.next_batch();
  EXPECT_EQ(signals, 1) << "capacity freed after a kFull rejection";
  (void)pool.next_batch();
  EXPECT_EQ(signals, 1) << "one signal per starvation episode";
}

TEST(MempoolTest, CountersAccumulate) {
  Mempool pool(MempoolLimits{
      .max_batch_bytes = 64, .max_pending_count = 2, .suppress_duplicates = true});
  pool.add("a");
  pool.add("a");                  // duplicate
  pool.add("b");
  pool.add("c");                  // full
  pool.add(std::string(80, 'x'));  // oversized
  EXPECT_EQ(pool.admitted(), 2U);
  EXPECT_EQ(pool.rejected_duplicate(), 1U);
  EXPECT_EQ(pool.rejected_full(), 1U);
  EXPECT_EQ(pool.rejected_oversized(), 1U);
}

}  // namespace
}  // namespace lumiere::consensus

// Unit tests for the report channel shared by both Central tiers: the
// sender's sequencing, full/delta choice and ack matching, and the
// receiver ledger's admission verdicts, lease renewal and sweep cadence.
// The tier tests (central_test, central_hier_test, daemon_test) cover the
// hosts; these pin the channel itself.
#include <gtest/gtest.h>

#include <map>

#include "gs/report_channel.h"
#include "sim/simulator.h"

namespace gs::proto {
namespace {

using Verdict = ReportLedger::Verdict;

// --- ReportSender -------------------------------------------------------------

class ReportSenderTest : public ::testing::Test {
 protected:
  const DomainReport& stamp() {
    DomainReport rep;
    rep.domain = 7;
    sender_.stamp(rep, scratch_);
    return sender_.report();
  }

  ReportSender<DomainReport> sender_;
  wire::Writer scratch_;
};

TEST_F(ReportSenderTest, SeqRestartsPerIncarnation) {
  EXPECT_EQ(stamp().seq, 1u);
  EXPECT_EQ(stamp().seq, 2u);
  EXPECT_EQ(stamp().seq, 3u);
  sender_.restart();
  EXPECT_FALSE(sender_.outstanding());
  EXPECT_TRUE(sender_.need_full());
  const DomainReport& first = stamp();
  EXPECT_EQ(first.seq, 1u);
  EXPECT_TRUE(first.full);
}

TEST_F(ReportSenderTest, StampedReportClearsNeedFull) {
  EXPECT_TRUE(sender_.need_full());  // a fresh sender establishes with a full
  EXPECT_TRUE(stamp().full);
  EXPECT_FALSE(sender_.need_full());
  EXPECT_FALSE(stamp().full);
  sender_.mark_full();
  EXPECT_TRUE(stamp().full);
  EXPECT_FALSE(sender_.need_full());
}

TEST_F(ReportSenderTest, StaleSeqAckIsIgnored) {
  stamp();
  stamp();  // supersedes seq 1 in flight
  EXPECT_FALSE(sender_.ack(1, /*need_full=*/true));
  ASSERT_TRUE(sender_.outstanding());
  EXPECT_EQ(sender_.report().seq, 2u);
  EXPECT_FALSE(sender_.need_full());  // the stale need_full changed nothing
  EXPECT_FALSE(sender_.ack(3, false));
  EXPECT_TRUE(sender_.ack(2, false));
  EXPECT_FALSE(sender_.outstanding());
  EXPECT_FALSE(sender_.ack(2, false));  // nothing left to match
}

TEST_F(ReportSenderTest, NeedFullAckRearmsAFull) {
  stamp();
  const std::uint64_t seq = stamp().seq;
  ASSERT_FALSE(sender_.report().full);
  EXPECT_TRUE(sender_.ack(seq, /*need_full=*/true));
  EXPECT_FALSE(sender_.outstanding());
  EXPECT_TRUE(sender_.need_full());
  const DomainReport& next = stamp();
  EXPECT_TRUE(next.full);
  EXPECT_EQ(next.seq, seq + 1);  // same incarnation: seqs keep growing
}

TEST_F(ReportSenderTest, DropLeavesNothingOutstanding) {
  const std::uint64_t seq = stamp().seq;
  sender_.drop();
  EXPECT_FALSE(sender_.outstanding());
  EXPECT_FALSE(sender_.frame().engaged());
  EXPECT_FALSE(sender_.ack(seq, false));
  EXPECT_EQ(stamp().seq, seq + 1);  // a drop is not a restart
}

TEST_F(ReportSenderTest, RetriesReuseOneFrame) {
  const DomainReport& rep = stamp();
  const net::Payload first_send = sender_.frame();
  const net::Payload retry = sender_.frame();
  EXPECT_EQ(first_send.identity(), retry.identity());
  // The held frame is the stamped report, seq and full flag included.
  const std::vector<std::uint8_t> expected = to_frame(rep);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         retry.bytes().begin(), retry.bytes().end()));
  // The next report gets a frame of its own.
  stamp();
  EXPECT_NE(sender_.frame().identity(), first_send.identity());
}

// --- ReportLedger -------------------------------------------------------------

class ReportLedgerTest : public ::testing::Test {
 protected:
  ReportLedgerTest() {
    params_.report_refresh = sim::seconds(3);
    params_.group_lease = sim::seconds(8);
  }

  ReportLedger make(ReportLedger::Incarnations incarnations =
                        ReportLedger::Incarnations::kNamed) {
    return ReportLedger(sim_, params_, incarnations, [this] { ++sweeps_; });
  }

  void run_for(sim::SimDuration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_;
  Params params_;
  int sweeps_ = 0;
};

TEST_F(ReportLedgerTest, FullFromUnknownSourceIsApplied) {
  ReportLedger ledger = make();
  EXPECT_EQ(ledger.admit(nullptr, 5, /*full=*/true, false), Verdict::kApply);
}

TEST_F(ReportLedgerTest, DuplicateRenewsLease) {
  ReportLedger ledger = make();
  ReportLedger::Record rec;
  ledger.applied(rec, 4);
  run_for(sim::seconds(5));
  EXPECT_EQ(ledger.admit(&rec, 4, /*full=*/true, true), Verdict::kDuplicate);
  EXPECT_EQ(rec.last_report, sim_.now());
  EXPECT_EQ(rec.last_seq, 4u);
  run_for(sim::seconds(5));
  EXPECT_EQ(ledger.admit(&rec, 3, /*full=*/false, true), Verdict::kDuplicate);
  EXPECT_EQ(rec.last_report, sim_.now());
}

TEST_F(ReportLedgerTest, DeltaFromUnknownSourceNeedsFullWithoutRecord) {
  ReportLedger ledger = make();
  std::map<int, ReportLedger::Record> records;  // the host's source table
  auto it = records.find(1);
  EXPECT_EQ(ledger.admit(it != records.end() ? &it->second : nullptr, 1,
                         /*full=*/false, false),
            Verdict::kNeedFull);
  EXPECT_TRUE(records.empty());
}

TEST_F(ReportLedgerTest, GapFromKnownSourceNeedsFullAndRenewsLease) {
  ReportLedger ledger = make();
  ReportLedger::Record rec;
  ledger.applied(rec, 1);
  run_for(sim::seconds(5));
  EXPECT_EQ(ledger.admit(&rec, 3, /*full=*/false, true), Verdict::kNeedFull);
  EXPECT_EQ(rec.last_report, sim_.now());
  EXPECT_EQ(rec.last_seq, 1u);  // nothing applied
  // The next delta in sequence, or a delta of another stream, likewise.
  EXPECT_EQ(ledger.admit(&rec, 2, /*full=*/false, true), Verdict::kApply);
  EXPECT_EQ(ledger.admit(&rec, 2, /*full=*/false, false), Verdict::kNeedFull);
}

TEST_F(ReportLedgerTest, NamedIncarnationsTreatOldFullsAsDuplicates) {
  ReportLedger ledger = make(ReportLedger::Incarnations::kNamed);
  ReportLedger::Record rec;
  ledger.applied(rec, 6);
  // Within one incarnation seqs only grow: a late full is a stale copy...
  EXPECT_EQ(ledger.admit(&rec, 2, /*full=*/true, true), Verdict::kDuplicate);
  // ...while another incarnation's low-numbered full establishes anew.
  EXPECT_EQ(ledger.admit(&rec, 1, /*full=*/true, false), Verdict::kApply);
}

TEST_F(ReportLedgerTest, UnnamedIncarnationsMatchFullsExactly) {
  ReportLedger ledger = make(ReportLedger::Incarnations::kUnnamed);
  ReportLedger::Record rec;
  ledger.applied(rec, 6);
  // A restarted source numbers from 1 again: a lower-seq full is a fresh
  // snapshot, not a stale copy, even within the recorded stream.
  EXPECT_EQ(ledger.admit(&rec, 2, /*full=*/true, true), Verdict::kApply);
  EXPECT_EQ(ledger.admit(&rec, 6, /*full=*/true, true), Verdict::kDuplicate);
  EXPECT_EQ(ledger.admit(&rec, 6, /*full=*/true, false), Verdict::kApply);
  // Deltas compare seqs as usual.
  EXPECT_EQ(ledger.admit(&rec, 5, /*full=*/false, true), Verdict::kDuplicate);
}

TEST_F(ReportLedgerTest, LeaseBoundaryKeepsTheSource) {
  ReportLedger ledger = make();
  ReportLedger::Record rec;
  ledger.applied(rec, 1);
  run_for(params_.group_lease);
  EXPECT_FALSE(ledger.expired(rec));  // now - last_report == lease
  run_for(1);
  EXPECT_TRUE(ledger.expired(rec));
}

TEST_F(ReportLedgerTest, SweepRunsEveryQuarterLease) {
  ReportLedger ledger = make();
  ledger.arm_sweep();
  run_for(sim::seconds(2) - 1);
  EXPECT_EQ(sweeps_, 0);
  run_for(1);
  EXPECT_EQ(sweeps_, 1);
  run_for(sim::seconds(6));
  EXPECT_EQ(sweeps_, 4);
  ledger.cancel_sweep();
  run_for(sim::seconds(20));
  EXPECT_EQ(sweeps_, 4);
}

TEST_F(ReportLedgerTest, SweepPeriodIsAtLeastOneSecond) {
  params_.group_lease = sim::seconds(2);
  ReportLedger ledger = make();
  ledger.arm_sweep();
  run_for(sim::seconds(3));
  EXPECT_EQ(sweeps_, 3);
}

TEST_F(ReportLedgerTest, SweepIsOffWithoutRefreshOrLease) {
  params_.report_refresh = 0;
  {
    ReportLedger ledger = make();
    ledger.arm_sweep();
    run_for(sim::seconds(60));
  }
  params_.report_refresh = sim::seconds(3);
  params_.group_lease = 0;
  {
    ReportLedger ledger = make();
    ledger.arm_sweep();
    run_for(sim::seconds(60));
  }
  EXPECT_EQ(sweeps_, 0);
}

}  // namespace
}  // namespace gs::proto

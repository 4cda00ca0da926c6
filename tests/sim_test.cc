// Unit tests for the simulation kernel: time, RNG, event queue, CPU
// accounting, cost model helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/sharded_event_queue.h"
#include "src/sim/time.h"

namespace squeezy {
namespace {

// --- Time -----------------------------------------------------------------

TEST(TimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(Sec(1.0), kSecond);
  EXPECT_EQ(Msec(1.0), kMillisecond);
  EXPECT_EQ(Usec(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(ToSec(Sec(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMsec(Msec(617)), 617.0);
  EXPECT_DOUBLE_EQ(ToUsec(Usec(3.5)), 3.5);
}

TEST(TimeTest, FormatPicksNaturalUnit) {
  EXPECT_EQ(FormatDuration(Sec(1.27)), "1.27 s");
  EXPECT_EQ(FormatDuration(Msec(617)), "617.00 ms");
  EXPECT_EQ(FormatDuration(Usec(42)), "42.00 us");
  EXPECT_EQ(FormatDuration(5), "5 ns");
}

TEST(CostModelTest, ByteAndPageConversions) {
  EXPECT_EQ(BytesToPages(1), 1u);
  EXPECT_EQ(BytesToPages(kPageSize), 1u);
  EXPECT_EQ(BytesToPages(kPageSize + 1), 2u);
  EXPECT_EQ(PagesToBytes(kPagesPerBlock), kMemoryBlockBytes);
  EXPECT_EQ(BytesToBlocks(GiB(2)), 16u);
  EXPECT_EQ(BytesToBlocks(MiB(768)), 6u);
  EXPECT_EQ(BytesToBlocks(1), 1u);
}

TEST(CostModelTest, DerivedHelpers) {
  const CostModel m = CostModel::Default();
  EXPECT_EQ(m.BalloonPerPage(), m.balloon_guest_page + m.balloon_exit_page);
  EXPECT_EQ(m.MigrateFolio(512), m.migrate_folio_fixed + 512 * m.migrate_page);
  EXPECT_EQ(m.ZeroPages(1000), 1000 * m.zero_page);
  EXPECT_EQ(CostModel::NoZeroing().zero_page, 0);
}

// --- RNG -------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, PoissonMeanConvergesSmall) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(3.5));
  }
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonMeanConvergesLarge) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(100.0));
  }
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalMeanConverges) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(4.0, 0.5);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.08);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v.begin(), v.end());
  EXPECT_NE(v, orig);  // Astronomically unlikely to be identity.
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Chance(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- EventQueue ----------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Sec(3), [&] { order.push_back(3); });
  q.ScheduleAt(Sec(1), [&] { order.push_back(1); });
  q.ScheduleAt(Sec(2), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Sec(3));
}

TEST(EventQueueTest, SameInstantFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(Sec(1), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  TimeNs fired_at = -1;
  q.ScheduleAt(Sec(5), [&] { q.ScheduleAfter(Sec(2), [&] { fired_at = q.now(); }); });
  q.RunAll();
  EXPECT_EQ(fired_at, Sec(7));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.ScheduleAt(Sec(1), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel is a no-op.
  q.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueueTest, CancelAfterRunReturnsFalseAndConservesPending) {
  EventQueue q;
  const EventId ran = q.ScheduleAt(Sec(1), [] {});
  const EventId live = q.ScheduleAt(Sec(5), [] {});
  q.RunUntil(Sec(2));
  ASSERT_EQ(q.pending(), 1u);
  // The documented contract: cancelling an already-run id must fail and
  // leave the books alone (the old lazy-tombstone set decremented
  // live_count_ here, making pending()/empty() lie forever after).
  EXPECT_FALSE(q.Cancel(ran));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_TRUE(q.Cancel(live));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelBogusIdDoesNotCorruptBooks) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(Sec(1), [&] { ran = true; });
  EXPECT_FALSE(q.Cancel(424242));  // Never issued.
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(ran);  // A bogus cancel must not tombstone a real event.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, HandlerCancellingItsOwnIdGetsFalse) {
  // A firing event's id is dead before its handler runs, so the handler
  // cannot cancel itself, and its attempt leaves the other event alone.
  EventQueue q;
  EventId self = kInvalidEventId;
  bool own_cancel = true;
  bool other_ran = false;
  self = q.ScheduleAt(Sec(1), [&] { own_cancel = q.Cancel(self); });
  q.ScheduleAt(Sec(2), [&] { other_ran = true; });
  q.RunUntil(Sec(1));
  EXPECT_FALSE(own_cancel);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(other_ran);
  EXPECT_EQ(q.processed_events(), 2u);
}

TEST(EventQueueTest, StaleIdDoesNotCancelALaterEventInItsSlot) {
  // Storage slots are reused once their event ran or was cancelled; the
  // old id must not reach the new event that took the slot.
  for (const bool cancel_first : {false, true}) {
    EventQueue q;
    const EventId old_id = q.ScheduleAt(Msec(1), [] {});
    if (cancel_first) {
      ASSERT_TRUE(q.Cancel(old_id));
    }
    q.RunAll();
    bool fired = false;
    const EventId new_id = q.ScheduleAt(Msec(2), [&] { fired = true; });
    EXPECT_NE(new_id, old_id);
    EXPECT_NE(new_id, kInvalidEventId);
    EXPECT_FALSE(q.Cancel(old_id)) << (cancel_first ? "cancelled" : "ran");
    EXPECT_EQ(q.pending(), 1u);
    q.RunAll();
    EXPECT_TRUE(fired) << (cancel_first ? "cancelled" : "ran");
  }
}

TEST(EventQueueTest, DoubleCancelSecondFails) {
  EventQueue q;
  const EventId a = q.ScheduleAt(Sec(1), [] {});
  q.ScheduleAt(Sec(2), [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));  // Second cancel: no-op, books unchanged.
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, PendingStaysConservedAcrossMixedOps) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.ScheduleAt(Sec(i + 1), [] {}));
  }
  EXPECT_EQ(q.pending(), 8u);
  EXPECT_TRUE(q.Cancel(ids[3]));
  EXPECT_TRUE(q.Cancel(ids[6]));
  EXPECT_FALSE(q.Cancel(ids[3]));
  EXPECT_EQ(q.pending(), 6u);
  q.RunUntil(Sec(4));  // Runs 1, 2, 3 (4 was cancelled).
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_FALSE(q.Cancel(ids[0]));  // Already ran.
  EXPECT_FALSE(q.Cancel(ids[6]));  // Already cancelled.
  EXPECT_FALSE(q.Cancel(999999));  // Never issued.
  EXPECT_EQ(q.pending(), 3u);
  q.RunAll();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Sec(1), [&] { order.push_back(1); });
  q.ScheduleAt(Sec(10), [&] { order.push_back(10); });
  q.RunUntil(Sec(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), Sec(5));
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(EventQueueTest, EventsScheduledWhileDrainingRun) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.ScheduleAfter(Sec(1), chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), Sec(4));
}

TEST(EventQueueTest, AdvanceByMovesClockWithoutRunning) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(Sec(1), [&] { ran = true; });
  q.AdvanceBy(Sec(2));
  EXPECT_EQ(q.now(), Sec(2));
  EXPECT_FALSE(ran);
  q.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), Sec(2));  // Past-due event runs at current time.
}

TEST(EventQueueTest, PastDeadlineScheduleClampsToNow) {
  EventQueue q;
  q.AdvanceBy(Sec(10));
  TimeNs fired = -1;
  q.ScheduleAt(Sec(1), [&] { fired = q.now(); });
  q.RunAll();
  EXPECT_EQ(fired, Sec(10));
}

TEST(EventQueueTest, CancelHeavyWorkloadKeepsStorageBounded) {
  // Cancellation must not grow the queue without bound: Cancel removes
  // the entry and destroys its closure (and what the closure owns) before
  // it returns.  Keeping cancelled entries until their timestamp drained
  // would hold ~200k dead closures (and their payloads) here.
  EventQueue q;
  auto payload = std::make_shared<int>(7);  // Owned by every dead closure.
  std::vector<EventId> live;
  for (int i = 0; i < 16; ++i) {
    live.push_back(q.ScheduleAt(Minutes(60) + Sec(i), [] {}));
  }
  for (int i = 0; i < 200000; ++i) {
    const EventId id =
        q.ScheduleAt(Sec(1) + Msec(i % 50000), [payload] { ++*payload; });
    ASSERT_TRUE(q.Cancel(id));
    // Live set and storage stay bounded at every step, not just at the end.
    ASSERT_EQ(q.pending(), 16u);
    ASSERT_EQ(payload.use_count(), 1);  // The dead closure is already gone.
  }
  q.RunAll();
  EXPECT_EQ(*payload, 7);  // None of the cancelled events ever ran.
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelsKeepSurvivorFiringOrder) {
  // Cancel every other event, from all over the heap, and check the
  // survivors still fire in exact (when, seq) order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::vector<std::shared_ptr<int>> payloads;  // One owned by each closure.
  for (int i = 0; i < 512; ++i) {
    // Mix of near and far-future timestamps.
    const TimeNs when = (i % 3 == 0) ? Msec(10 + i) : Sec(30) + Msec(i);
    payloads.push_back(std::make_shared<int>(i));
    ids.push_back(
        q.ScheduleAt(when, [&fired, p = payloads.back()] { fired.push_back(*p); }));
  }
  for (int i = 0; i < 512; i += 2) {
    ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
    // The cancelled closure is destroyed inside Cancel.
    ASSERT_EQ(payloads[static_cast<size_t>(i)].use_count(), 1) << i;
    ASSERT_EQ(payloads[static_cast<size_t>(i) + 1].use_count(), 2) << i;
  }
  q.RunAll();
  ASSERT_EQ(fired.size(), 256u);
  // Survivors (odd i) must appear in (when, seq) order: rebuild expected.
  std::vector<std::pair<std::pair<TimeNs, int>, int>> expect;
  for (int i = 1; i < 512; i += 2) {
    const TimeNs when = (i % 3 == 0) ? Msec(10 + i) : Sec(30) + Msec(i);
    expect.push_back({{when, i}, i});
  }
  std::sort(expect.begin(), expect.end());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].second) << i;
  }
}

TEST(EventQueueTest, OrdersMultiHourTimestamps) {
  // Timestamps from milliseconds to 30 hours out, scheduled interleaved,
  // must fire in exact (when, seq) order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<TimeNs> whens;
  int tag = 0;
  for (int i = 0; i < 40; ++i) {
    whens.push_back(Msec(5 + 17 * i));
    whens.push_back(Sec(40) + Msec(13 * i));
    whens.push_back(Minutes(90) + Sec(7 * i));
    whens.push_back(Minutes(60 * 30) + Sec(3 * i));  // 30 h.
  }
  for (const TimeNs when : whens) {
    const int t = tag++;
    q.ScheduleAt(when, [&fired, t] { fired.push_back(t); });
  }
  q.RunAll();
  ASSERT_EQ(fired.size(), whens.size());
  std::vector<std::pair<TimeNs, int>> expect;
  for (size_t i = 0; i < whens.size(); ++i) {
    expect.push_back({whens[i], static_cast<int>(i)});
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].second) << i;
  }
  EXPECT_EQ(q.now(), whens.back());
}

TEST(EventQueueTest, HandlerChainsAcrossMultiHourGaps) {
  // A handler firing hours in schedules more work near and far; both
  // fire in (when, seq) order against the advanced clock.
  EventQueue q;
  std::vector<std::pair<int, TimeNs>> fired;
  q.ScheduleAt(Minutes(100), [&] {
    fired.push_back({0, q.now()});
    q.ScheduleAfter(Msec(2), [&] { fired.push_back({1, q.now()}); });
    q.ScheduleAfter(Minutes(200), [&] { fired.push_back({2, q.now()}); });
  });
  q.ScheduleAt(Minutes(250), [&] { fired.push_back({3, q.now()}); });
  q.RunAll();
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<int, TimeNs>{0, Minutes(100)}));
  EXPECT_EQ(fired[1], (std::pair<int, TimeNs>{1, Minutes(100) + Msec(2)}));
  EXPECT_EQ(fired[2], (std::pair<int, TimeNs>{3, Minutes(250)}));
  EXPECT_EQ(fired[3], (std::pair<int, TimeNs>{2, Minutes(300)}));
}

TEST(EventQueueTest, MultiHourCancelsFreeClosuresAtOnce) {
  // Cancel-heavy churn hours out: each cancelled closure is destroyed
  // inside Cancel, however far away its timestamp sits.
  EventQueue q;
  std::vector<EventId> ids;
  auto fired = std::make_shared<int>(0);  // Owned by every pending closure.
  for (int i = 0; i < 4096; ++i) {
    const TimeNs when = Minutes(30 + i) + Msec(i);
    ids.push_back(q.ScheduleAt(when, [fired] { ++*fired; }));
    if (i % 2 == 1) {
      ASSERT_TRUE(q.Cancel(ids.back()));
    }
    ASSERT_EQ(fired.use_count(), 1 + static_cast<long>(q.pending()));
  }
  q.RunAll();
  EXPECT_EQ(*fired, 2048);
  EXPECT_EQ(fired.use_count(), 1);
}

TEST(EventQueueTest, ScheduleEachHoldsOneLiveEventAndFiresInStableOrder) {
  // A series stores only its next call.  Calls fire in (when, index)
  // order, and a time already in the past runs at the submission instant.
  EventQueue q;
  q.RunUntil(Msec(10));
  std::vector<std::pair<size_t, TimeNs>> fired;
  q.ScheduleEach({Msec(30), Msec(20), Msec(5), Msec(20), Msec(30)},
                 [&](size_t i) { fired.push_back({i, q.now()}); });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.scheduled_events(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, (std::vector<std::pair<size_t, TimeNs>>{
                       {2, Msec(10)}, {1, Msec(20)}, {3, Msec(20)}, {0, Msec(30)},
                       {4, Msec(30)}}));
  EXPECT_EQ(q.scheduled_events(), 5u);  // One stored event per call.
  EXPECT_EQ(q.processed_events(), 5u);
  EXPECT_EQ(q.peak_pending(), 1u);
  EXPECT_TRUE(q.empty());
  q.ScheduleEach({}, [](size_t) { ADD_FAILURE() << "an empty series never fires"; });
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ScheduleEachWinsTiesWithEventsScheduledAfterIt) {
  // The series draws its sequence numbers at submission, so an event
  // scheduled afterwards for a call's instant fires after that call — on
  // the single queue and on the sharded mailbox alike.
  for (const bool sharded : {false, true}) {
    ShardedEventQueue fleet(2);
    EventQueue single;
    EventQueue& q = sharded ? fleet.global() : single;
    EventQueue& host = sharded ? fleet.shard(1) : single;
    std::vector<std::string> log;
    q.ScheduleEach({Msec(1), Msec(2)},
                   [&](size_t i) { log.push_back("call" + std::to_string(i)); });
    host.ScheduleAt(Msec(2), [&] { log.push_back("host timer"); });
    q.ScheduleAt(Msec(2), [&] { log.push_back("timer"); });
    if (sharded) {
      fleet.RunAll();
    } else {
      single.RunAll();
    }
    EXPECT_EQ(log, (std::vector<std::string>{"call0", "call1", "host timer", "timer"}))
        << (sharded ? "sharded" : "single");
  }
}

TEST(EventQueueTest, MailboxScheduleAfterOnAnIdleShardUsesTheFleetClock) {
  // Every queue of the sharded kernel reads one clock.  A shard that has
  // run nothing for seconds still reads fleet time, so a mailbox handler's
  // ScheduleAfter onto it lands `delay` after the mailbox event, and a
  // ScheduleAt in the past clamps to fleet time, as on the single queue.
  ShardedEventQueue fleet(2);
  EventQueue& busy = fleet.shard(0);
  EventQueue& idle = fleet.shard(1);
  std::vector<std::pair<std::string, TimeNs>> log;
  const auto note = [&](const char* what, EventQueue& q) {
    log.push_back({what, q.now()});
  };
  idle.ScheduleAt(Msec(1), [&] { note("idle", idle); });
  busy.ScheduleAt(Sec(2), [&] { note("busy", busy); });
  fleet.global().ScheduleAt(Sec(5), [&] {
    note("mailbox", fleet.global());
    idle.ScheduleAfter(Msec(2), [&] { note("after", idle); });
    idle.ScheduleAt(Msec(1), [&] { note("clamped", idle); });
  });
  fleet.RunUntil(Sec(10));
  EXPECT_EQ(log, (std::vector<std::pair<std::string, TimeNs>>{
                     {"idle", Msec(1)},
                     {"busy", Sec(2)},
                     {"mailbox", Sec(5)},
                     {"clamped", Sec(5)},
                     {"after", Sec(5) + Msec(2)}}));
  EXPECT_EQ(fleet.now(), Sec(10));
  EXPECT_EQ(idle.now(), Sec(10));
  EXPECT_EQ(busy.now(), Sec(10));
}

TEST(EventQueueTest, PeakPendingAndScheduledEventsCountTheLiveSet) {
  EventQueue q;
  const EventId a = q.ScheduleAt(Msec(1), [] {});
  q.ScheduleAt(Msec(2), [] {});
  q.Cancel(a);
  q.ScheduleAt(Msec(3), [] {});
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.peak_pending(), 2u);
  EXPECT_EQ(q.scheduled_events(), 3u);  // Cancelled events were stored too.
  q.RunAll();
  EXPECT_EQ(q.peak_pending(), 2u);
  EXPECT_EQ(q.processed_events(), 2u);
  // The sharded kernel sums its queues' counters.
  ShardedEventQueue fleet(2);
  fleet.shard(0).ScheduleAt(Msec(1), [] {});
  fleet.shard(1).ScheduleAt(Msec(1), [] {});
  fleet.global().ScheduleAt(Msec(2), [] {});
  fleet.RunAll();
  EXPECT_EQ(fleet.scheduled_events(), 3u);
  EXPECT_EQ(fleet.peak_pending(), 3u);
}

TEST(EventQueueTest, LanesCountOnlyTheirOwnEvents) {
  // Lanes share one heap but keep their own counters: a series counts as
  // one live event on the lane that submitted it, a cancel debits the
  // lane that scheduled the event, and the per-lane processed counts sum
  // to the heap's.  Ids come from the one slot table, so an id cancelled
  // through another lane still cancels the event it names.
  ShardedEventQueue fleet(3);
  EventQueue& a = fleet.shard(0);
  EventQueue& b = fleet.shard(1);
  int series_calls = 0;
  a.ScheduleEach({Msec(1), Msec(2), Msec(3)}, [&](size_t) { ++series_calls; });
  EXPECT_EQ(a.pending(), 1u);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(fleet.global().pending(), 0u);
  const EventId own = b.ScheduleAt(Msec(2), [] { ADD_FAILURE() << "cancelled"; });
  ASSERT_EQ(b.pending(), 1u);
  EXPECT_TRUE(b.Cancel(own));
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(a.pending(), 1u);
  bool other_ran = false;
  const EventId other = fleet.shard(2).ScheduleAt(Msec(2), [&] { other_ran = true; });
  b.ScheduleAt(Msec(2), [] {});
  EXPECT_TRUE(fleet.global().Cancel(other));
  EXPECT_EQ(fleet.shard(2).pending(), 0u);
  EXPECT_EQ(b.pending(), 1u);
  fleet.global().ScheduleAt(Msec(4), [] {});
  fleet.RunAll();
  EXPECT_FALSE(other_ran);
  EXPECT_EQ(series_calls, 3);
  const std::vector<uint64_t> per_shard = fleet.ShardProcessed();
  EXPECT_EQ(per_shard, (std::vector<uint64_t>{3, 1, 0}));
  EXPECT_EQ(per_shard[0] + per_shard[1] + per_shard[2] +
                fleet.global().processed_events(),
            fleet.processed_events());
  EXPECT_EQ(fleet.processed_events(), 5u);
  EXPECT_EQ(a.peak_pending(), 1u);
  EXPECT_EQ(a.scheduled_events(), 3u);
  EXPECT_EQ(fleet.shard(2).scheduled_events(), 1u);
}

// The runaway guard: a handler that reschedules itself forever never
// drains, and returning after max_events would hand the caller a
// truncated run with work still pending.  Both kernels stop the process
// instead, with asserts compiled out or not.
TEST(EventQueueDeathTest, RunAllAbortsPastMaxEvents) {
  EXPECT_DEATH(
      {
        EventQueue q;
        std::function<void()> again = [&] { q.ScheduleAfter(Msec(1), again); };
        q.ScheduleAt(0, again);
        q.RunAll(100);
      },
      "max_events");
}

TEST(EventQueueDeathTest, ShardedRunAllAbortsPastMaxEvents) {
  EXPECT_DEATH(
      {
        ShardedEventQueue q(2);
        EventQueue& shard = q.shard(1);
        std::function<void()> again = [&] { shard.ScheduleAfter(Msec(1), again); };
        shard.ScheduleAt(0, again);
        q.RunAll(100);
      },
      "max_events");
}

// --- CpuAccountant ----------------------------------------------------------------

TEST(CpuAccountantTest, SingleWindowUtilization) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("t", Msec(100), Msec(500));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", Msec(200)), 50.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", Sec(2)), 0.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("other", 0), 0.0);
}

TEST(CpuAccountantTest, BusySpanSplitsAcrossWindows) {
  CpuAccountant cpu(Sec(1));
  // 0.5s..2.5s busy: windows get 50%, 100%, 50%.
  cpu.AddBusy("t", Msec(500), Sec(2));
  const std::vector<double> series = cpu.Series("t");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 50.0);
  EXPECT_DOUBLE_EQ(series[1], 100.0);
  EXPECT_DOUBLE_EQ(series[2], 50.0);
  EXPECT_EQ(cpu.TotalBusy("t"), Sec(2));
}

TEST(CpuAccountantTest, MultipleThreadsIndependent) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("a", 0, Msec(250));
  cpu.AddBusy("b", 0, Msec(750));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("a", 0), 25.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("b", 0), 75.0);
  EXPECT_EQ(cpu.threads().size(), 2u);
}

TEST(CpuAccountantTest, AccumulatesWithinWindow) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("t", 0, Msec(100));
  cpu.AddBusy("t", Msec(500), Msec(100));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", 0), 20.0);
}

TEST(CpuAccountantTest, CountedChargeEqualsRepeatedSingleCharges) {
  // A batch of N identical charges (e.g. N nested faults at one instant)
  // must land window for window exactly like N separate calls — including
  // a charge that straddles a window boundary, whose tail stays in the next
  // window instead of stretching N-fold.
  const int64_t n = 7;
  CpuAccountant counted(Sec(1));
  CpuAccountant single(Sec(1));
  counted.AddBusy("t", Msec(900), Msec(300), n);
  counted.AddBusy("t", Msec(2500), Usec(2), n);
  for (int64_t i = 0; i < n; ++i) {
    single.AddBusy("t", Msec(900), Msec(300));
    single.AddBusy("t", Msec(2500), Usec(2));
  }
  EXPECT_EQ(counted.TotalBusy("t"), single.TotalBusy("t"));
  EXPECT_EQ(counted.TotalBusy("t"), n * (Msec(300) + Usec(2)));
  EXPECT_EQ(counted.Series("t"), single.Series("t"));
  ASSERT_EQ(counted.Series("t").size(), 3u);
  for (const TimeNs t : {Msec(950), Msec(1100), Msec(2600)}) {
    EXPECT_DOUBLE_EQ(counted.UtilizationAt("t", t), single.UtilizationAt("t", t));
  }
  // 100 ms of each charge falls in window 0, 200 ms in window 1.
  EXPECT_DOUBLE_EQ(counted.UtilizationAt("t", Msec(950)), 70.0);
  EXPECT_DOUBLE_EQ(counted.UtilizationAt("t", Msec(1100)), 140.0);
}

}  // namespace
}  // namespace squeezy

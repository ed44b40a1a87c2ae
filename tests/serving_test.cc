// The concurrent serving front end: snapshot publication, update
// coalescing, warm restart, and the readers-never-see-torn-models
// contract (the Serving suites ride the TSan CI lane).

#include "serving/serving_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

std::unique_ptr<ServingSolver> MustServe(std::string_view text,
                                         ServingOptions serving = {},
                                         SolverOptions solver = {}) {
  auto s = ServingSolver::FromText(text, std::move(solver),
                                   std::move(serving));
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

ServingOptions Manual() {
  ServingOptions o;
  o.background = false;
  return o;
}

TEST(Serving, InitialSnapshotIsTheWellFoundedModel) {
  auto srv = MustServe("p :- not q. q :- e. e. r :- not r.");
  SnapshotPtr snap = srv->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->updates_applied, 0u);
  auto direct = Solver::FromText("p :- not q. q :- e. e. r :- not r.");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(snap->model, direct->Solve());
  EXPECT_EQ(*srv->Query("q"), TruthValue::kTrue);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  EXPECT_EQ(*srv->Query("r"), TruthValue::kUndefined);
  EXPECT_EQ(*srv->Query("never_mentioned"), TruthValue::kFalse);
  EXPECT_EQ(srv->Stats().snapshots_published, 1u);
}

TEST(Serving, UpdatesBecomeVisibleAtNewVersions) {
  auto srv = MustServe("p :- e, not q. q :- f. e. f.", Manual());
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
  // Enqueued, not yet applied: readers still see version 0.
  EXPECT_EQ(srv->snapshot()->version, 0u);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  EXPECT_TRUE(srv->Pump());
  EXPECT_EQ(srv->snapshot()->version, 1u);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);
  EXPECT_FALSE(srv->Pump());  // queue drained
  ASSERT_TRUE(srv->AssertFacts({"f"}).ok());
  srv->Flush();  // manual mode: Flush pumps inline
  EXPECT_EQ(srv->snapshot()->version, 2u);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  EXPECT_EQ(srv->snapshot()->updates_applied, 2u);
}

TEST(Serving, BurstsCoalesceIntoOneRepairPass) {
  auto srv = MustServe("p :- e, not q. q :- f. e. f.", Manual());
  // Five mutations of two atoms; the last write per atom wins and ONE
  // repair pass applies the net effect (e asserted, f retracted).
  ASSERT_TRUE(srv->RetractFacts({"f", "e"}).ok());
  ASSERT_TRUE(srv->AssertFacts({"e"}).ok());
  ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
  ASSERT_TRUE(srv->AssertFacts({"e"}).ok());
  EXPECT_TRUE(srv->Pump());
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.updates_enqueued, 5u);
  EXPECT_EQ(st.updates_applied, 5u);
  EXPECT_EQ(st.repair_passes, 1u);
  EXPECT_EQ(st.updates_coalesced, 3u);  // only final e-assert + f-retract ran
  EXPECT_EQ(st.max_batch, 5u);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);
  EXPECT_EQ(*srv->Query("e"), TruthValue::kTrue);
  // The model equals a from-scratch solve of the net program.
  auto net = Solver::FromText("p :- e, not q. q :- f. e.");
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(srv->snapshot()->model.num_undefined(),
            net->Solve().num_undefined());
}

TEST(Serving, QueryBatchIsConsistentAtOneVersion) {
  auto srv = MustServe("p :- not q. q :- e. e.", Manual());
  auto p = srv->Resolve("p");
  auto q = srv->Resolve("q");
  ASSERT_TRUE(p.ok() && q.ok());
  const std::vector<AtomId> ids = {*p, *q};
  std::vector<TruthValue> vals = srv->QueryBatchIds(ids);
  ASSERT_EQ(vals.size(), 2u);
  // p and q are complementary in every published model of this program —
  // a batch must never mix versions and see both true or both false.
  EXPECT_NE(vals[0] == TruthValue::kTrue, vals[1] == TruthValue::kTrue);
  auto texts = srv->QueryBatch({"p", "q", "ghost", "bad atom ("});
  ASSERT_EQ(texts.size(), 4u);
  EXPECT_TRUE(texts[0].ok());
  EXPECT_EQ(*texts[2], TruthValue::kFalse);  // unknown → closed world
  EXPECT_FALSE(texts[3].ok());               // unparsable → error
}

TEST(Serving, UnknownAtomFailsEnqueueAtomically) {
  auto srv = MustServe("p :- not q. q :- e. e.", Manual());
  EXPECT_FALSE(srv->AssertFacts({"e", "nowhere(at,all)"}).ok());
  EXPECT_FALSE(srv->Pump()) << "failed call must enqueue nothing";
  EXPECT_EQ(srv->Stats().updates_enqueued, 0u);
}

TEST(Serving, InlineBoundTriggersPumpWithoutBackgroundWriter) {
  ServingOptions o = Manual();
  o.max_pending_updates = 4;
  auto srv = MustServe("p :- e, not q. q :- f. e. f.", o);
  // 6 single-op calls with a bound of 4: the producer that fills the
  // queue drains it inline, so no explicit Pump is ever needed.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
    ASSERT_TRUE(srv->AssertFacts({"f"}).ok());
  }
  EXPECT_GE(srv->Stats().repair_passes, 1u);
  srv->Flush();
  EXPECT_EQ(srv->Stats().updates_applied, 6u);
}

TEST(Serving, SaveRestoreRoundTripsTheModel) {
  const char* kText = "p :- e, not q. q :- f. e. f. r :- not r.";
  auto a = MustServe(kText, Manual());
  ASSERT_TRUE(a->RetractFacts({"f"}).ok());
  a->Flush();
  const std::string image = a->SaveState();

  auto b = MustServe(kText, Manual());
  EXPECT_NE(b->snapshot()->model, a->snapshot()->model);
  ASSERT_TRUE(b->RestoreState(image).ok()) << "restore failed";
  EXPECT_EQ(b->snapshot()->model, a->snapshot()->model);
  EXPECT_EQ(*b->Query("p"), TruthValue::kTrue);
  // The restored session keeps serving and repairing.
  ASSERT_TRUE(b->AssertFacts({"f"}).ok());
  b->Flush();
  EXPECT_EQ(*b->Query("p"), TruthValue::kFalse);

  // Corrupt or cross-program images are rejected, session unharmed.
  EXPECT_FALSE(b->RestoreState("not a state image").ok());
  auto c = MustServe("x :- not y. y.", Manual());
  EXPECT_FALSE(c->RestoreState(image).ok());
  EXPECT_EQ(*b->Query("q"), TruthValue::kTrue);
}

TEST(Serving, BackgroundWriterAppliesAndFlushWaits) {
  auto srv = MustServe("p :- e, not q. q :- f. e. f.");
  ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
  srv->Flush();
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);
  ASSERT_TRUE(srv->AssertFacts({"f"}).ok());
  srv->Flush();
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.updates_applied, 2u);
  EXPECT_GE(st.repair_passes, 1u);
}

TEST(Serving, DestructorDrainsPendingUpdates) {
  std::mutex mu;
  std::uint64_t last_applied = 0;
  ServingOptions o;
  o.on_publish = [&](const SnapshotPtr& s) {
    std::lock_guard<std::mutex> lk(mu);
    last_applied = s->updates_applied;
  };
  {
    auto srv = MustServe("p :- e. e. f.", o);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
      ASSERT_TRUE(srv->AssertFacts({"f"}).ok());
    }
    // Destruction drains whatever is still queued before joining.
  }
  EXPECT_EQ(last_applied, 16u);
}

// The TSan-lane stress: concurrent readers + one writer stream. Every
// snapshot a reader observes must be a COMPLETE model at some version —
// p and e below always agree in a published model, so a torn or
// half-repaired model would break the invariant; version stamps must be
// monotone per reader; and the final model must equal a from-scratch
// solve of the net program.
TEST(Serving, ConcurrentReadersSeeCompleteVersionedSnapshots) {
  constexpr const char* kText =
      "p :- e, not q. q :- not p, not e. r :- not r. e.";
  std::mutex mu;
  std::map<std::uint64_t, bool> e_at_version;  // version → e's truth
  ServingOptions o;
  o.on_publish = [&](const SnapshotPtr& s) {
    std::lock_guard<std::mutex> lk(mu);
    // Publication order is version order (single publisher).
    e_at_version[s->version] =
        s->model.num_true() > 0 &&
        s->last_update.facts_changed <= 1;  // receipt sanity
  };
  auto srv = MustServe(kText, o);
  const AtomId e = *srv->Resolve("e");
  const AtomId p = *srv->Resolve("p");
  const AtomId q = *srv->Resolve("q");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      // At least one read per reader: on a loaded machine the writes can
      // all finish before a reader thread is first scheduled.
      do {
        SnapshotPtr snap = srv->snapshot();
        // Complete-model invariant: with e true, p is true and q false;
        // with e retracted, p false and q undefined (p/q alternation
        // through "not e"): in EVERY published model p==true iff e==true.
        const bool e_true = snap->model.Value(e) == TruthValue::kTrue;
        const bool p_true = snap->model.Value(p) == TruthValue::kTrue;
        const bool q_false = snap->model.Value(q) == TruthValue::kFalse;
        if (e_true != p_true || (e_true && !q_false)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (snap->version < last_version) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap->version;
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(srv->RetractFacts({"e"}).ok());
    ASSERT_TRUE(srv->AssertFacts({"e"}).ok());
  }
  srv->Flush();
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(*srv->Query("e"), TruthValue::kTrue);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.updates_applied, 400u);
  // Versions the hook saw are dense from 0 (single publisher, monotone).
  std::lock_guard<std::mutex> lk(mu);
  std::uint64_t expect = 0;
  for (const auto& [version, ok] : e_at_version) {
    EXPECT_EQ(version, expect++) << "publication skipped a version";
  }
  // Final model differential against a from-scratch session.
  auto direct = Solver::FromText(kText);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(srv->snapshot()->model, direct->Solve());
}

TEST(ServingParallel, BackpressureBoundsTheQueue) {
  ServingOptions o;
  o.max_pending_updates = 8;
  auto srv = MustServe(
      "w(X) :- m(X, Y), not w(Y). "
      "m(a,b). m(b,c). m(c,d). m(d,a). e.",
      o);
  // Hammer the queue from two producers; the bound forces blocks and the
  // writer keeps up. Nothing to assert beyond: it terminates, applies
  // everything, and the stats add up.
  auto producer = [&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(srv->RetractFacts({"e"}).ok());
      ASSERT_TRUE(srv->AssertFacts({"e"}).ok());
    }
  };
  std::thread t1(producer), t2(producer);
  t1.join();
  t2.join();
  srv->Flush();
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.updates_enqueued, 400u);
  EXPECT_EQ(st.updates_applied, 400u);
  EXPECT_LE(st.max_batch, 8u + 1u);  // bound honored (±the op in flight)
  EXPECT_EQ(*srv->Query("e"), TruthValue::kTrue);
}

SolverOptions Mutable() {
  SolverOptions o;
  o.ground.simplify = false;  // rule ops require unsimplified grounding
  return o;
}

TEST(Serving, RuleOpsApplyThroughTheWriterQueue) {
  auto srv = MustServe("e. p :- e, not q.", Manual(), Mutable());
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);

  srv->AddRule("z :- p.");
  // Enqueued, not applied: still version 0, z not in the universe yet.
  EXPECT_EQ(srv->snapshot()->version, 0u);
  EXPECT_EQ(*srv->Query("z"), TruthValue::kFalse);  // closed world
  EXPECT_TRUE(srv->Pump());
  EXPECT_EQ(*srv->Query("z"), TruthValue::kTrue);
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.rule_ops_enqueued, 1u);
  EXPECT_EQ(st.rule_ops_applied, 1u);
  EXPECT_EQ(st.rule_ops_failed, 0u);

  // Removal leaves the dead atom behind, false — and the id resolved
  // after the growth keeps answering through the id-based path.
  auto z = srv->Resolve("z");
  ASSERT_TRUE(z.ok());
  ASSERT_NE(*z, kInvalidAtom);
  srv->RemoveRule("z :- p.");
  srv->Flush();
  EXPECT_EQ(srv->Query(*z), TruthValue::kFalse);

  // A failing op (no live match) is dropped and accounted, later ops in
  // the same batch still apply.
  srv->RemoveRule("never(X) :- was(X).");
  ASSERT_TRUE(srv->RetractFacts({"e"}).ok());
  srv->Flush();
  st = srv->Stats();
  EXPECT_EQ(st.rule_ops_failed, 1u);
  EXPECT_EQ(st.last_rule_error.code(), StatusCode::kNotFound);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);  // the retract ran
}

TEST(Serving, RuleOpsAreCoalescingBarriers) {
  auto srv = MustServe("e. f. p :- e, not q. q :- f.", Manual(), Mutable());
  // Without barriers, last-write-wins would fold retract(f)+assert(f)
  // into a no-op and one repair. With the AddRule between them, the
  // segments stay separate and the batch still publishes ONE snapshot.
  ASSERT_TRUE(srv->RetractFacts({"f"}).ok());
  srv->AddRule("saw_p :- p.");
  ASSERT_TRUE(srv->AssertFacts({"f"}).ok());
  EXPECT_TRUE(srv->Pump());
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.repair_passes, 1u);
  EXPECT_EQ(st.rule_ops_applied, 1u);
  EXPECT_EQ(st.updates_applied, 2u);
  EXPECT_EQ(st.updates_coalesced, 0u);  // the barrier kept both ops live
  // Final state: f back, so q true, p false (and saw_p with it).
  EXPECT_EQ(*srv->Query("p"), TruthValue::kFalse);
  EXPECT_EQ(*srv->Query("saw_p"), TruthValue::kFalse);
  EXPECT_EQ(srv->snapshot()->version, 1u);
}

TEST(Serving, SimplifiedSessionRejectsRuleOpsIntoStats) {
  auto srv = MustServe("e. p :- e.", Manual());  // default: simplify on
  srv->AddRule("z :- p.");
  EXPECT_TRUE(srv->Pump());
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.rule_ops_applied, 0u);
  EXPECT_EQ(st.rule_ops_failed, 1u);
  EXPECT_EQ(st.last_rule_error.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(*srv->Query("p"), TruthValue::kTrue);  // session untouched
}

TEST(ServingParallel, RuleOpsUnderLockFreeReaders) {
  // Background-writer stress for the TSan lane: one producer cycles rule
  // mutations (universe growth + removal) interleaved with fact toggles
  // while reader threads hammer the id-based snapshot path and
  // text-resolution path concurrently. Asserts: versions stay monotone
  // per reader, snapshots stay internally consistent, and the final
  // state matches the net program.
  auto srv = MustServe(
      "e(a). e(b). f(a). p(X) :- e(X), not q(X). q(X) :- f(X).",
      ServingOptions{}, Mutable());
  auto pa = srv->Resolve("p(a)");
  auto pb = srv->Resolve("p(b)");
  auto fa = srv->Resolve("f(a)");
  ASSERT_TRUE(pa.ok() && pb.ok() && fa.ok());
  const std::vector<AtomId> ids = {*pa, *pb, *fa};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  auto reader = [&] {
    std::uint64_t last_version = 0;
    // At least one read per reader: on a loaded machine the writes can
    // all finish before a reader thread is first scheduled.
    do {
      SnapshotPtr snap = srv->snapshot();
      EXPECT_GE(snap->version, last_version);
      last_version = snap->version;
      EXPECT_TRUE(snap->model.IsConsistent());
      (void)srv->QueryBatchIds(ids);
      (void)srv->Query("z(a)");  // text path: may or may not exist yet
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_relaxed));
  };
  std::thread r1(reader), r2(reader), r3(reader);

  for (int i = 0; i < 30; ++i) {
    srv->AddRule("z(X) :- p(X).");
    ASSERT_TRUE(srv->RetractFacts({"f(a)"}).ok());
    srv->Flush();
    srv->RemoveRule("z(X) :- p(X).");
    ASSERT_TRUE(srv->AssertFacts({"f(a)"}).ok());
    srv->Flush();
  }
  stop.store(true);
  r1.join();
  r2.join();
  r3.join();

  EXPECT_GT(reads.load(), 0u);
  ServingStats st = srv->Stats();
  EXPECT_EQ(st.rule_ops_enqueued, 60u);
  EXPECT_EQ(st.rule_ops_applied, 60u);
  EXPECT_EQ(st.rule_ops_failed, 0u);
  // Net state: rule removed, facts restored — p(a) false under q(a),
  // p(b) true, and the dead z atoms false.
  EXPECT_EQ(*srv->Query("p(a)"), TruthValue::kFalse);
  EXPECT_EQ(*srv->Query("p(b)"), TruthValue::kTrue);
  EXPECT_EQ(*srv->Query("z(a)"), TruthValue::kFalse);
  EXPECT_EQ(*srv->Query("z(b)"), TruthValue::kFalse);
}

}  // namespace
}  // namespace afp

// Utility-layer tests: Status/StatusOr, Bitset, Interner, Arena,
// TablePrinter.

#include "util/bitset.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/interner.h"
#include "util/json.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace afp {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> Doubled(int x) {
  AFP_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOr, ValueAndErrorPropagation) {
  auto good = Doubled(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = Doubled(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bitset, SetTestResetCount) {
  Bitset b(130);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(b.Count(), 3u);
  EXPECT_TRUE(b.Test(64));
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(Bitset, ComplementRespectsUniverse) {
  Bitset b(70);
  b.Set(3);
  Bitset c = Bitset::ComplementOf(b);
  EXPECT_EQ(c.Count(), 69u);
  EXPECT_FALSE(c.Test(3));
  EXPECT_TRUE(c.Test(69));
  // Double complement is identity.
  EXPECT_EQ(Bitset::ComplementOf(c), b);
}

TEST(Bitset, SetAllTrimsTail) {
  Bitset b(65);
  b.SetAll();
  EXPECT_EQ(b.Count(), 65u);
}

TEST(Bitset, SubsetAndDisjoint) {
  Bitset a(10), b(10);
  a.Set(1);
  b.Set(1);
  b.Set(5);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsDisjointWith(b));
  Bitset c(10);
  c.Set(7);
  EXPECT_TRUE(a.IsDisjointWith(c));
}

// The search's branch choice: the first position in neither set, a word
// at a time. Universes on both sides of a word boundary pin the mask on
// the last word (bits past the universe are never reported).
TEST(Bitset, FirstZeroOfUnionAtWordBoundaries) {
  for (std::size_t n : {63u, 64u, 65u, 128u}) {
    Bitset t(n), f(n);
    EXPECT_EQ(Bitset::FirstZeroOfUnion(t, f), 0u) << "n=" << n;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      (i % 2 == 0 ? t : f).Set(i);
      EXPECT_EQ(Bitset::FirstZeroOfUnion(t, f), i + 1) << "n=" << n;
    }
    (n % 2 == 0 ? f : t).Set(n - 1);
    EXPECT_EQ(Bitset::FirstZeroOfUnion(t, f), n) << "n=" << n << " full";
    // A hole in the first word wins over any later one.
    t.Reset(5);
    f.Reset(5);
    t.Reset(n - 1);
    f.Reset(n - 1);
    EXPECT_EQ(Bitset::FirstZeroOfUnion(t, f), 5u) << "n=" << n;
    t.Set(5);
    EXPECT_EQ(Bitset::FirstZeroOfUnion(t, f), n - 1) << "n=" << n;
  }
  Bitset empty_t, empty_f;
  EXPECT_EQ(Bitset::FirstZeroOfUnion(empty_t, empty_f), 0u);
}

TEST(Bitset, BooleanOpsAndForEach) {
  Bitset a(100), b(100);
  a.Set(2);
  a.Set(90);
  b.Set(90);
  b.Set(3);
  Bitset u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 3u);
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(90));
  Bitset d = a;
  d.Subtract(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(2));

  std::vector<std::size_t> seen;
  u.ForEach([&](std::size_t x) { seen.push_back(x); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 90}));
}

TEST(Status, EveryCodeHasAStableName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(Status, EmptyMessageStillRenders) {
  Status s = Status::NotFound("");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: ");
  EXPECT_EQ(s.message(), "");
}

StatusOr<std::string> FailingLookup() {
  return Status::NotFound("no such atom");
}

StatusOr<std::size_t> ChainedThrough() {
  AFP_ASSIGN_OR_RETURN(std::string name, FailingLookup());
  return name.size();
}

TEST(StatusOr, ErrorPropagatesThroughMultipleFrames) {
  // The code and message must survive two AFP_ASSIGN_OR_RETURN hops
  // unchanged.
  auto r = ChainedThrough();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "no such atom");
}

TEST(StatusOr, ReturnIfErrorPropagatesAndPassesOk) {
  auto through = [](const Status& s) -> Status {
    AFP_RETURN_IF_ERROR(s);
    return Status::Ok();
  };
  EXPECT_TRUE(through(Status::Ok()).ok());
  Status err = through(Status::ResourceExhausted("guard tripped"));
  EXPECT_EQ(err.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err.message(), "guard tripped");
}

TEST(StatusOr, MoveOnlyValueRoundTrips) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

#ifndef NDEBUG
// Accessing the value of an errored StatusOr is a programming error; the
// library asserts in debug builds (Release compiles the check away, so
// these death tests only run with assertions enabled).
TEST(StatusOrDeathTest, ValueAccessOnErrorDies) {
  StatusOr<int> err = Status::InvalidArgument("boom");
  EXPECT_DEATH_IF_SUPPORTED({ [[maybe_unused]] int x = *err; }, "");
}

TEST(StatusOrDeathTest, ConstructionFromOkStatusDies) {
  EXPECT_DEATH_IF_SUPPORTED(
      { [[maybe_unused]] StatusOr<int> bad{Status::Ok()}; }, "");
}
#endif  // NDEBUG

TEST(Interner, RoundTripAndFind) {
  Interner in;
  SymbolId a = in.Intern("wins");
  SymbolId b = in.Intern("move");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("wins"), a);
  EXPECT_EQ(in.Name(a), "wins");
  EXPECT_EQ(in.Find("move"), b);
  EXPECT_EQ(in.Find("absent"), Interner::npos);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, EmptyStringIsAValidSymbol) {
  Interner in;
  SymbolId empty = in.Intern("");
  EXPECT_EQ(in.Name(empty), "");
  EXPECT_EQ(in.Find(""), empty);
  EXPECT_EQ(in.Intern(""), empty);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, DuplicateInternIsIdempotent) {
  Interner in;
  SymbolId first = in.Intern("wins");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(in.Intern("wins"), first);
  }
  EXPECT_EQ(in.size(), 1u);
  // Interleaved duplicates never disturb previously issued ids.
  SymbolId move = in.Intern("move");
  EXPECT_EQ(in.Intern("wins"), first);
  EXPECT_EQ(in.Intern("move"), move);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, IdsAreDenseAndNamesStayStable) {
  Interner in;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(in.Intern("sym" + std::to_string(i)));
  // Ids are issued densely in intern order and survive rehashing of the
  // underlying map.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ids[i], static_cast<SymbolId>(i));
    EXPECT_EQ(in.Name(ids[i]), "sym" + std::to_string(i));
    EXPECT_EQ(in.Find("sym" + std::to_string(i)), ids[i]);
  }
  EXPECT_EQ(in.size(), 200u);
}

TEST(Interner, FindOnEmptyInternerMisses) {
  Interner in;
  EXPECT_EQ(in.size(), 0u);
  EXPECT_EQ(in.Find(""), Interner::npos);
  EXPECT_EQ(in.Find("anything"), Interner::npos);
}

TEST(Interner, NposIsNeverIssued) {
  // npos is all-ones; real ids count up from zero, so any realistic
  // interner can never collide with it.
  Interner in;
  SymbolId id = in.Intern("x");
  EXPECT_NE(id, Interner::npos);
  EXPECT_EQ(Interner::npos, static_cast<SymbolId>(-1));
}

TEST(Arena, AllocationsAreUsableAndCounted) {
  Arena arena(128);
  int* xs = arena.AllocateArray<int>(100);  // spills over block size
  for (int i = 0; i < 100; ++i) xs[i] = i;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(xs[i], i);
  EXPECT_GE(arena.total_allocated(), 400u);
  // Alignment.
  void* p = arena.Allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"k", "set"});
  t.AddRow({"0", "{}"});
  t.AddRow({"1", "{p(a), p(b)}"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| k | set"), std::string::npos);
  EXPECT_NE(out.find("| 1 | {p(a), p(b)} |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinter, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("| 1 |"), std::string::npos);
}

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("name", "say \"hi\"\n");
  w.KeyValue("count", static_cast<std::uint64_t>(3));
  w.KeyValue("ok", true);
  w.BeginArray("items");
  w.Value("a");
  w.Value("b");
  w.BeginObject().KeyValue("nested", false).EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"say \\\"hi\\\"\\n\",\"count\":3,\"ok\":true,"
            "\"items\":[\"a\",\"b\",{\"nested\":false}]}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.BeginObject();
  w.BeginArray("empty");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"empty\":[]}");
}

TEST(JsonWriter, MemberAfterKeyedArrayIsSeparated) {
  // A keyed array used to leave its object expecting no comma, so the next
  // member ran into it: {"a":[]"b":1}.
  JsonWriter w;
  w.BeginObject();
  w.BeginArray("a");
  w.EndArray();
  w.KeyValue("b", static_cast<std::uint64_t>(1));
  w.BeginArray("c");
  w.Value("x");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":[],\"b\":1,\"c\":[\"x\"]}");
}

TEST(JsonWriter, QuoteEscapesControlChars) {
  EXPECT_EQ(JsonWriter::Quote(std::string("\x01") + "a\\"),
            "\"\\u0001a\\\\\"");
}

}  // namespace
}  // namespace afp

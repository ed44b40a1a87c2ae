#include "workload/programs.h"

#include <random>

namespace afp {
namespace workload {

std::string NodeName(int i) {
  if (i >= 0 && i < 26) return std::string(1, static_cast<char>('a' + i));
  return std::string("n").append(std::to_string(i));
}

Program WinMove(const Digraph& g) {
  Program p;
  for (auto [u, v] : g.edges) p.AddFact("move", {NodeName(u), NodeName(v)});
  Atom head = p.MakeAtom("wins", {p.Var("X")});
  p.AddRule(head, {Program::Pos(p.MakeAtom("move", {p.Var("X"), p.Var("Y")})),
                   Program::Neg(p.MakeAtom("wins", {p.Var("Y")}))});
  return p;
}

Program TransitiveClosureComplement(const Digraph& g) {
  Program p;
  for (auto [u, v] : g.edges) p.AddFact("e", {NodeName(u), NodeName(v)});
  for (int i = 0; i < g.n; ++i) p.AddFact("node", {NodeName(i)});
  TermId x = p.Var("X"), y = p.Var("Y"), z = p.Var("Z");
  p.AddRule(p.MakeAtom("tc", {x, y}),
            {Program::Pos(p.MakeAtom("e", {x, y}))});
  p.AddRule(p.MakeAtom("tc", {x, y}),
            {Program::Pos(p.MakeAtom("e", {x, z})),
             Program::Pos(p.MakeAtom("tc", {z, y}))});
  p.AddRule(p.MakeAtom("ntc", {x, y}),
            {Program::Pos(p.MakeAtom("node", {x})),
             Program::Pos(p.MakeAtom("node", {y})),
             Program::Neg(p.MakeAtom("tc", {x, y}))});
  return p;
}

Program Example51() {
  // Verbatim from Example 5.1 of the paper.
  auto parsed = ParseProgram(R"(
    p(a) :- p(c), not p(b).
    p(b) :- not p(a).
    p(c).
    p(d) :- p(e), not p(f).
    p(d) :- p(f), not p(g).
    p(d) :- p(h).
    p(e) :- p(d).
    p(f) :- p(e).
    p(f) :- not p(c).
    p(i) :- p(c), not p(d).
  )");
  return std::move(parsed).value();
}

Program Example31() {
  auto parsed = ParseProgram(R"(
    p :- q.
    p :- r.
    q :- not r.
    r :- not q.
  )");
  return std::move(parsed).value();
}

Program EvenNegativeCycles(int k) {
  Program p;
  for (int i = 0; i < k; ++i) {
    std::string ai = std::string("a").append(std::to_string(i));
    std::string bi = std::string("b").append(std::to_string(i));
    p.AddRule(p.MakeAtom(ai), {Program::Neg(p.MakeAtom(bi))});
    p.AddRule(p.MakeAtom(bi), {Program::Neg(p.MakeAtom(ai))});
  }
  return p;
}

Program EvenCycleClusters(int k, int chain_len) {
  Program p;
  for (int i = 0; i < k; ++i) {
    const std::string suffix = std::to_string(i);
    p.AddRule(p.MakeAtom("a" + suffix),
              {Program::Neg(p.MakeAtom("b" + suffix))});
    p.AddRule(p.MakeAtom("b" + suffix),
              {Program::Neg(p.MakeAtom("a" + suffix))});
    const std::string chain_base = "c" + suffix + "_";
    std::string prev = chain_base + "0";
    p.AddFact(prev, {});
    for (int j = 1; j < chain_len; ++j) {
      std::string cur = chain_base + std::to_string(j);
      p.AddRule(p.MakeAtom(cur), {Program::Neg(p.MakeAtom(prev))});
      prev = std::move(cur);
    }
  }
  return p;
}

Program RandomPropositional(int num_atoms, int num_rules, int body_len,
                            int neg_prob_percent, std::uint64_t seed) {
  Program p;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> atom(0, num_atoms - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  auto name = [](int i) {
    return std::string("p").append(std::to_string(i));
  };
  for (int r = 0; r < num_rules; ++r) {
    Atom head = p.MakeAtom(name(atom(rng)));
    std::vector<Literal> body;
    for (int j = 0; j < body_len; ++j) {
      Atom a = p.MakeAtom(name(atom(rng)));
      bool positive = percent(rng) >= neg_prob_percent;
      body.push_back(Literal{std::move(a), positive});
    }
    p.AddRule(std::move(head), std::move(body));
  }
  return p;
}

Program RandomStratified(int num_atoms, int num_rules, int body_len,
                         int num_layers, std::uint64_t seed) {
  Program p;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> percent(0, 99);
  if (num_layers < 1) num_layers = 1;
  auto layer_of = [&](int i) { return i % num_layers; };
  auto name = [](int i) {
    return std::string("p").append(std::to_string(i));
  };

  // A few base facts so lower layers are not empty.
  for (int i = 0; i < num_atoms; i += 7) p.AddFact(name(i), {});

  std::uniform_int_distribution<int> atom(0, num_atoms - 1);
  for (int r = 0; r < num_rules; ++r) {
    int h = atom(rng);
    int hl = layer_of(h);
    Atom head = p.MakeAtom(name(h));
    std::vector<Literal> body;
    for (int j = 0; j < body_len; ++j) {
      int b = atom(rng);
      bool positive;
      if (layer_of(b) < hl) {
        positive = percent(rng) >= 40;  // lower layer: either polarity
      } else {
        // Same or higher layer: force positive and pull into <= layer by
        // remapping the atom index to the head's layer.
        b = (b / num_layers) * num_layers + hl;
        if (b >= num_atoms) b = h;
        positive = true;
      }
      body.push_back(Literal{p.MakeAtom(name(b)), positive});
    }
    p.AddRule(std::move(head), std::move(body));
  }
  return p;
}

Program RandomDatalog(int num_consts, int num_facts, int num_rules,
                      std::uint64_t seed) {
  Program p;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> cdist(0, num_consts - 1);
  std::uniform_int_distribution<int> percent(0, 99);

  // Vocabulary: EDB e/2, b/1; IDB p/1, q/1, r/2, s/1.
  struct Pred {
    const char* name;
    int arity;
  };
  const Pred idb[] = {{"p", 1}, {"q", 1}, {"r", 2}, {"s", 1}};
  const Pred edb[] = {{"e", 2}, {"b", 1}};

  auto konst = [&] { return NodeName(cdist(rng)); };
  for (int i = 0; i < num_facts; ++i) {
    const Pred& pr = edb[percent(rng) % 2];
    if (pr.arity == 2) {
      p.AddFact(pr.name, {konst(), konst()});
    } else {
      p.AddFact(pr.name, {konst()});
    }
  }

  TermId x = p.Var("X"), y = p.Var("Y");
  auto pick_args = [&](int arity, bool allow_y) -> std::vector<TermId> {
    std::vector<TermId> args;
    for (int i = 0; i < arity; ++i) {
      int roll = percent(rng);
      if (roll < 45) {
        args.push_back(x);
      } else if (roll < 75 && allow_y) {
        args.push_back(y);
      } else {
        args.push_back(p.Const(konst()));
      }
    }
    return args;
  };

  for (int i = 0; i < num_rules; ++i) {
    std::vector<Literal> body;
    // First literal: positive, binds X (and possibly Y).
    {
      bool use_edb = percent(rng) < 60;
      const Pred& pr = use_edb ? edb[percent(rng) % 2]
                               : idb[percent(rng) % 4];
      std::vector<TermId> args;
      args.push_back(x);
      if (pr.arity == 2) args.push_back(y);
      body.push_back(Literal{p.MakeAtom(pr.name, std::move(args)), true});
    }
    bool has_y = body[0].atom.args.size() == 2;
    int extra = percent(rng) % 3;  // 0..2 extra literals
    for (int k = 0; k < extra; ++k) {
      bool use_edb = percent(rng) < 40;
      const Pred& pr = use_edb ? edb[percent(rng) % 2]
                               : idb[percent(rng) % 4];
      bool positive = percent(rng) >= 45;
      // Negative literals may only use bound variables (safety).
      std::vector<TermId> args = pick_args(pr.arity, has_y);
      body.push_back(Literal{p.MakeAtom(pr.name, std::move(args)),
                             positive});
    }
    const Pred& hp = idb[percent(rng) % 4];
    std::vector<TermId> head_args = pick_args(hp.arity, has_y);
    p.AddRule(p.MakeAtom(hp.name, std::move(head_args)), std::move(body));
  }
  // The generator keeps variables bound by the leading positive literal,
  // so the program is safe by construction; assert it in debug builds.
  return p;
}

}  // namespace workload
}  // namespace afp

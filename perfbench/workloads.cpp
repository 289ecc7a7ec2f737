// Workload tool of the spec-to-RESULT benchmark (driven by run.py).
//
//   perfbench_workloads setup  <workload> <seed> <out.cpp>
//   perfbench_workloads layers <workload> <seed> <seconds_per_layer>
//   perfbench_workloads serial <workload> <seed>
//
// Each workload is spec text (built here from the seed), generator options
// and the solver's command line.  `setup` takes the spec text through the
// three in-process layers once — spec::parse_spec, tiling::TilingModel,
// codegen::generate_program — and writes the program, timing each call.
// `layers` repeats each call until it is measurable.  `serial` runs the
// workload's plain single-threaded reference loop, the correctness oracle
// and speed baseline, once per line read from stdin, and prints the
// RESULT/MAX lines the solver must print.  Every subcommand answers with a
// JSON object per line on stdout; times are
// CLOCK_MONOTONIC seconds (the clock of Python's time.monotonic()), so
// run.py can nest these spans under its own.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "tiling/model.hpp"

using namespace dpgen;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- seeded inputs ---------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// DNA string number `stream` of the given seed.
std::string seeded_dna(std::size_t length, std::uint64_t seed, int stream) {
  std::uint64_t state = seed * 0x100000001b3ull + static_cast<std::uint64_t>(stream);
  std::string out(length, 'A');
  for (auto& c : out) c = "ACGT"[splitmix64(state) >> 62];
  return out;
}

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string spec_text;
  codegen::GenOptions gen;
  std::vector<long long> params;
  int ranks = 1;
  int threads = 1;
  /// Runs the serial reference loop; returns the RESULT/MAX lines.
  std::function<std::vector<std::string>()> serial;
};

constexpr int kBanditN = 200;

const char* const kBanditSpec = R"(# 2-arm Bernoulli bandit (paper Fig. 1)
problem bandit2
params N
vars s1 f1 s2 f2
array V double

constraints {
  s1 >= 0
  f1 >= 0
  s2 >= 0
  f2 >= 0
  s1 + f1 + s2 + f2 <= N
}

dep r1 = (1, 0, 0, 0)
dep r2 = (0, 1, 0, 0)
dep r3 = (0, 0, 1, 0)
dep r4 = (0, 0, 0, 1)

loadbalance s1 f1
tilewidths 8 8 8 8

center {{{
if (is_valid_r1 && is_valid_r2 && is_valid_r3 && is_valid_r4) {
  double p1 = (double)(s1 + 1) / (double)(s1 + f1 + 2);
  double p2 = (double)(s2 + 1) / (double)(s2 + f2 + 2);
  double v1 = p1 * (1.0 + V[loc_r1]) + (1.0 - p1) * V[loc_r2];
  double v2 = p2 * (1.0 + V[loc_r3]) + (1.0 - p2) * V[loc_r4];
  V[loc] = v1 > v2 ? v1 : v2;
} else {
  V[loc] = 0.0;
}
}}}
)";

/// Serial bandit2: sweeps the planes s1+f1+s2+f2 = n from N down to 0,
/// keeping only planes n and n+1.  A plane is stored as rows over s2 for
/// each (s1, f1); f2 is implied by the plane.
double bandit2_serial(int N) {
  const std::size_t W = static_cast<std::size_t>(N) + 2;
  std::vector<std::size_t> off_next(W * W), off_cur(W * W);
  auto layout = [&](int n, std::vector<std::size_t>& off) {
    std::size_t k = 0;
    for (int a = 0; a <= n; ++a)
      for (int b = 0; a + b <= n; ++b) {
        off[static_cast<std::size_t>(a) * W + static_cast<std::size_t>(b)] = k;
        k += static_cast<std::size_t>(n - a - b + 1);
      }
    return k;
  };
  // Plane N: no dependency is valid, every value is 0.
  std::vector<double> next(layout(N, off_next), 0.0), cur;
  for (int n = N - 1; n >= 0; --n) {
    cur.assign(layout(n, off_cur), 0.0);
    for (int a = 0; a <= n; ++a) {
      for (int b = 0; a + b <= n; ++b) {
        const std::size_t ab = static_cast<std::size_t>(a) * W + static_cast<std::size_t>(b);
        const double* r1 = &next[off_next[ab + W]];  // (a+1, b, c, d)
        const double* r2 = &next[off_next[ab + 1]];  // (a, b+1, c, d)
        const double* r34 = &next[off_next[ab]];     // (a, b, c+1, d) / (a, b, c, d+1)
        double* out = &cur[off_cur[ab]];
        const double p1 = (double)(a + 1) / (double)(a + b + 2);
        for (int c = 0; a + b + c <= n; ++c) {
          const int d = n - a - b - c;
          const double p2 = (double)(c + 1) / (double)(c + d + 2);
          const double v1 = p1 * (1.0 + r1[c]) + (1.0 - p1) * r2[c];
          const double v2 = p2 * (1.0 + r34[c + 1]) + (1.0 - p2) * r34[c];
          out[c] = v1 > v2 ? v1 : v2;
        }
      }
    }
    next.swap(cur);
    off_next.swap(off_cur);
  }
  return next[0];
}

Workload bandit2_r2t2() {
  Workload w;
  w.spec_text = kBanditSpec;
  w.params = {kBanditN};
  w.ranks = 2;
  w.threads = 2;
  w.serial = [] {
    return std::vector<std::string>{"RESULT (0, 0, 0, 0) = " +
                                    fmt17(bandit2_serial(kBanditN))};
  };
  return w;
}

constexpr std::size_t kSwLength = 12000;

/// Serial Smith-Waterman (suffix form, match 2, mismatch -1, gap -1) over
/// two rows, tracking the maximum and its lexicographically smallest
/// location as the generated program does.
std::vector<std::string> swalign_serial(const std::string& a,
                                        const std::string& b) {
  const std::size_t l1 = a.size(), l2 = b.size();
  std::vector<double> next(l2 + 1, 0.0), cur(l2 + 1, 0.0);
  // Row l1 is all zeros: its smallest location is (l1, 0).
  double best = 0.0;
  std::size_t bi = l1, bj = 0;
  for (std::size_t i = l1; i-- > 0;) {
    const char ai = a[i];
    double h = next[l2] - 1.0 > 0.0 ? next[l2] - 1.0 : 0.0;
    cur[l2] = h;
    for (std::size_t j = l2; j-- > 0;) {
      h = -1.0 + h;  // ins: H(i, j+1) - 1
      const double diag = (ai == b[j] ? 2.0 : -1.0) + next[j + 1];
      const double del = -1.0 + next[j];
      if (diag > h) h = diag;
      if (del > h) h = del;
      if (h < 0.0) h = 0.0;
      cur[j] = h;
    }
    // Rows come in decreasing i, so a tie with an earlier row moves the
    // max here; within the row the smallest j wins.
    const double row_max = *std::max_element(cur.begin(), cur.end());
    if (row_max >= best) {
      best = row_max;
      bi = i;
      bj = static_cast<std::size_t>(
          std::find(cur.begin(), cur.end(), row_max) - cur.begin());
    }
    next.swap(cur);
  }
  return {"RESULT (0, 0) = " + fmt17(next[0]),
          "MAX (" + std::to_string(bi) + ", " + std::to_string(bj) +
              ") = " + fmt17(best)};
}

Workload swalign_r1t4(std::uint64_t seed) {
  const std::string a = seeded_dna(kSwLength, seed, 0);
  const std::string b = seeded_dna(kSwLength, seed, 1);
  Workload w;
  w.spec_text = R"(# Smith-Waterman local alignment (match 2, mismatch -1, gap -1)
problem smith_waterman
params L1 L2
vars i j
array V double

constraints {
  i >= 0
  i <= L1
  j >= 0
  j <= L2
}

dep diag = (1, 1)
dep del = (1, 0)
dep ins = (0, 1)

loadbalance i j
tilewidths 256 256

global {{{
static const char dp_seq_a[] = ")" + a + R"(";
static const char dp_seq_b[] = ")" + b + R"(";
}}}

center {{{
double dp_h = 0.0;
if (is_valid_diag) {
  double c = (dp_seq_a[i] == dp_seq_b[j] ? 2.0 : -1.0) + V[loc_diag];
  if (c > dp_h) dp_h = c;
}
if (is_valid_del) { double c = -1.0 + V[loc_del]; if (c > dp_h) dp_h = c; }
if (is_valid_ins) { double c = -1.0 + V[loc_ins]; if (c > dp_h) dp_h = c; }
V[loc] = dp_h;
}}}
)";
  w.gen.track_max = true;
  w.gen.passes = codegen::PassPipeline::parse("full");
  w.params = {static_cast<long long>(kSwLength),
              static_cast<long long>(kSwLength)};
  w.ranks = 1;
  w.threads = 4;
  w.serial = [a, b] { return swalign_serial(a, b); };
  return w;
}

constexpr std::size_t kMsaLength = 300;
constexpr double kMsaMismatch = 1.0, kMsaGap = 2.0;

/// Serial 3-sequence MSA (suffix form, mismatch 1, gap 2) over two
/// x1-planes.  A column advancing one sequence costs two gaps; advancing
/// two costs their mismatch plus two gaps; all three, the three mismatches.
double msa3_serial(const std::string* s) {
  const long long l1 = static_cast<long long>(s[0].size());
  const long long l2 = static_cast<long long>(s[1].size());
  const long long l3 = static_cast<long long>(s[2].size());
  const std::size_t row = static_cast<std::size_t>(l3) + 1;
  const std::size_t plane = (static_cast<std::size_t>(l2) + 1) * row;
  std::vector<double> next(plane, 0.0), cur(plane, 0.0);
  auto mis = [](char a, char b) { return a == b ? 0.0 : kMsaMismatch; };
  for (long long x1 = l1; x1 >= 0; --x1) {
    for (long long x2 = l2; x2 >= 0; --x2) {
      for (long long x3 = l3; x3 >= 0; --x3) {
        const bool a1 = x1 < l1, a2 = x2 < l2, a3 = x3 < l3;
        const char c1 = a1 ? s[0][static_cast<std::size_t>(x1)] : 0;
        const char c2 = a2 ? s[1][static_cast<std::size_t>(x2)] : 0;
        const char c3 = a3 ? s[2][static_cast<std::size_t>(x3)] : 0;
        const std::size_t at = static_cast<std::size_t>(x2) * row +
                               static_cast<std::size_t>(x3);
        double best = 0.0;
        bool any = false;
        auto take = [&](bool ok, double c) {
          if (ok && (!any || c < best)) {
            best = c;
            any = true;
          }
        };
        const double gg = kMsaGap + kMsaGap;
        take(a1, gg + next[at]);
        take(a2, gg + cur[at + row]);
        take(a1 && a2, mis(c1, c2) + gg + next[at + row]);
        take(a3, gg + cur[at + 1]);
        take(a1 && a3, mis(c1, c3) + gg + next[at + 1]);
        take(a2 && a3, gg + mis(c2, c3) + cur[at + row + 1]);
        take(a1 && a2 && a3,
             mis(c1, c2) + mis(c1, c3) + mis(c2, c3) + next[at + row + 1]);
        cur[at] = any ? best : 0.0;
      }
    }
    next.swap(cur);
  }
  return next[0];
}

Workload msa3_r4t1(std::uint64_t seed) {
  const std::string seqs[3] = {seeded_dna(kMsaLength, seed, 0),
                               seeded_dna(kMsaLength, seed, 1),
                               seeded_dna(kMsaLength, seed, 2)};
  std::string center = "double dp_best = 0.0; int dp_any = 0;\n";
  for (unsigned mask = 1; mask <= 7; ++mask) {
    std::string cost;
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j) {
        const bool ai = (mask >> i) & 1u, aj = (mask >> j) & 1u;
        std::string term;
        if (ai && aj)
          term = "(dp_seq" + std::to_string(i) + "[x" + std::to_string(i + 1) +
                 "] == dp_seq" + std::to_string(j) + "[x" +
                 std::to_string(j + 1) + "] ? 0.0 : 1.0)";
        else if (ai != aj)
          term = "2.0";
        else
          continue;
        cost += (cost.empty() ? "" : " + ") + term;
      }
    const std::string m = std::to_string(mask);
    center += "if (is_valid_r" + m + ") {\n  double dp_c = " + cost +
              " + V[loc_r" + m +
              "];\n  if (!dp_any || dp_c < dp_best) { dp_best = dp_c; "
              "dp_any = 1; }\n}\n";
  }
  center += "V[loc] = dp_any ? dp_best : 0.0;\n";

  Workload w;
  w.spec_text = R"(# Exact 3-sequence alignment, sum-of-pairs (mismatch 1, gap 2)
problem msa3
params L1 L2 L3
vars x1 x2 x3
array V double

constraints {
  x1 >= 0
  x1 <= L1
  x2 >= 0
  x2 <= L2
  x3 >= 0
  x3 <= L3
}

dep r1 = (1, 0, 0)
dep r2 = (0, 1, 0)
dep r3 = (1, 1, 0)
dep r4 = (0, 0, 1)
dep r5 = (1, 0, 1)
dep r6 = (0, 1, 1)
dep r7 = (1, 1, 1)

loadbalance x1 x2
tilewidths 12 12 12

global {{{
static const char dp_seq0[] = ")" + seqs[0] + R"(";
static const char dp_seq1[] = ")" + seqs[1] + R"(";
static const char dp_seq2[] = ")" + seqs[2] + R"(";
}}}

center {{{
)" + center + "}}}\n";
  const auto len = static_cast<long long>(kMsaLength);
  w.params = {len, len, len};
  w.ranks = 4;
  w.threads = 1;
  w.serial = [s0 = seqs[0], s1 = seqs[1], s2 = seqs[2]] {
    const std::string s[3] = {s0, s1, s2};
    return std::vector<std::string>{"RESULT (0, 0, 0) = " +
                                    fmt17(msa3_serial(s))};
  };
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "bandit2-r2t2") return bandit2_r2t2();  // no random input
  if (name == "swalign-r1t4") return swalign_r1t4(seed);
  if (name == "msa3-r4t1") return msa3_r4t1(seed);
  raise("unknown workload '" + name + "'");
}

// ---- JSON output -------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string span_json(const char* name, double start, double end) {
  return std::string("{\"name\": ") + quote(name) +
         ", \"start\": " + fmt17(start) + ", \"end\": " + fmt17(end) + "}";
}

// ---- subcommands -------------------------------------------------------------

int cmd_setup(const Workload& w, const std::string& out_path) {
  const double t0 = now();
  spec::ProblemSpec spec = spec::parse_spec(w.spec_text);
  const double t1 = now();
  tiling::TilingModel model(std::move(spec));
  const double t2 = now();
  const std::string program = codegen::generate_program(model, w.gen);
  const double t3 = now();
  {
    std::ofstream out(out_path);
    out << program;
    out.close();
    if (!out) raise("cannot write '" + out_path + "'");
  }
  const double t4 = now();

  std::string args;
  for (long long p : w.params) args += quote(std::to_string(p)) + ", ";
  args += quote("--ranks=" + std::to_string(w.ranks)) + ", " +
          quote("--threads=" + std::to_string(w.threads));
  std::printf(
      "{\"solver_args\": [%s], \"lines\": %lld, \"spans\": [%s, %s, %s, %s]}\n",
      args.c_str(),
      static_cast<long long>(std::count(program.begin(), program.end(), '\n')),
      span_json("parse", t0, t1).c_str(), span_json("model", t1, t2).c_str(),
      span_json("generate", t2, t3).c_str(), span_json("write", t3, t4).c_str());
  return 0;
}

/// Median seconds per call of fn, repeated until `budget` seconds (at
/// least 3 and at most 1000 calls).
double median_call(const std::function<void()>& fn, double budget) {
  std::vector<double> times;
  const double start = now();
  while (times.size() < 3 || (times.size() < 1000 && now() - start < budget)) {
    const double t = now();
    fn();
    times.push_back(now() - t);
  }
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();
  return n % 2 ? times[n / 2] : 0.5 * (times[n / 2 - 1] + times[n / 2]);
}

int cmd_layers(const Workload& w, double budget) {
  const double start = now();
  const double parse_s =
      median_call([&] { (void)spec::parse_spec(w.spec_text); }, budget);
  const spec::ProblemSpec spec = spec::parse_spec(w.spec_text);
  const double model_s =
      median_call([&] { tiling::TilingModel m(spec); }, budget);
  const tiling::TilingModel model(spec);
  const double generate_s = median_call(
      [&] { (void)codegen::generate_program(model, w.gen); }, budget);
  const double end = now();
  IntVec params(w.params.begin(), w.params.end());
  std::printf(
      "{\"parse_s\": %s, \"model_s\": %s, \"generate_s\": %s, \"tiles\": %lld, "
      "\"cells\": %lld, \"spans\": [%s]}\n",
      fmt17(parse_s).c_str(), fmt17(model_s).c_str(), fmt17(generate_s).c_str(),
      static_cast<long long>(model.total_tiles(params)),
      static_cast<long long>(model.total_cells(params)),
      span_json("layers", start, end).c_str());
  return 0;
}

/// Serves serial runs: each line read from stdin runs the reference loop
/// once and answers with its RESULT/MAX lines and span.  Kept alive across
/// a run so its runs alternate with the solves without process start-up.
int cmd_serial(const Workload& w) {
  std::vector<std::string> first;
  for (std::string req; std::getline(std::cin, req);) {
    const double t = now();
    auto expected = w.serial();
    const double end = now();
    if (first.empty())
      first = expected;
    else if (expected != first)
      raise("serial loop is not deterministic");
    std::string lines;
    for (const auto& l : expected)
      lines += (lines.empty() ? "" : ", ") + quote(l);
    std::printf("{\"expected\": [%s], \"span\": %s}\n", lines.c_str(),
                span_json("serial", t, end).c_str());
    std::fflush(stdout);
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s setup <workload> <seed> <out.cpp> | "
               "layers <workload> <seed> <seconds> | serial <workload> <seed>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    const Workload w = make_workload(argv[2], std::strtoull(argv[3], nullptr, 10));
    if (cmd == "setup" && argc == 5) return cmd_setup(w, argv[4]);
    if (cmd == "layers" && argc == 5) return cmd_layers(w, std::atof(argv[4]));
    if (cmd == "serial" && argc == 4) return cmd_serial(w);
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
}

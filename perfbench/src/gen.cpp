#include "gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string_view>
#include <utility>

namespace perfbench {

std::uint64_t SeedRng::next() noexcept {
  // SplitMix64.
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeedRng::below(std::uint64_t n) noexcept { return next() % n; }

double SeedRng::unit() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// How the streams stay steady across seeds: each closed-loop stream is
// a repetition of one block of request *classes* (device, problem
// extent, request kind) in a fixed, interleaved order, so every seed
// sends the same mix in the same rhythm. The seed only chooses the
// members of each class (stencil, option values) — each class keeps a
// seeded permutation of its members and block b takes member b, so no
// request repeats within a stream.

namespace {

constexpr std::array<std::string_view, 2> kGpus = {"GTX 980", "Titan X"};
constexpr std::array<std::string_view, 4> kDevices = {
    "GTX 980", "Titan X", "Xeon E5-2690 v4", "Ryzen 7 3700X"};
constexpr std::array<std::string_view, 4> kPaper2D = {
    "Jacobi2D", "Heat2D", "Laplacian2D", "Gradient2D"};
constexpr std::array<std::string_view, 5> kStencils2D = {
    "Jacobi2D", "Heat2D", "Laplacian2D", "Gradient2D", "WideStar2D"};
constexpr std::array<std::string_view, 3> kStencils3D = {"Jacobi3D", "Heat3D",
                                                         "Laplacian3D"};
constexpr std::array<std::int64_t, 5> kPaperT2D = {1024, 2048, 4096, 8192,
                                                   16384};
// parallel_sweep's option values, rotated every four blocks after the
// stencils ran out.
constexpr std::array<std::string_view, 8> kDeltas = {
    "0.1", "0.08", "0.06", "0.04", "0.12", "0.11", "0.02", "0.14"};
constexpr std::array<std::string_view, 8> kCaps = {"150", "100", "120", "80",
                                                   "140", "110", "90", "130"};

template <typename T>
void shuffle(SeedRng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::string str(std::int64_t v) { return std::to_string(v); }

std::string quoted(std::string_view s) {
  return "\"" + std::string(s) + "\"";
}

std::string problem2d(std::int64_t s, std::int64_t t) {
  return "\"problem\":{\"S\":[" + str(s) + "," + str(s) + "],\"T\":" + str(t) +
         "}";
}

std::string problem3d(std::int64_t s, std::int64_t t) {
  return "\"problem\":{\"S\":[" + str(s) + "," + str(s) + "," + str(s) +
         "],\"T\":" + str(t) + "}";
}

std::string head(std::string_view dev, std::string_view st,
                 const std::string& problem) {
  return "\"device\":" + quoted(dev) + ",\"stencil\":" + quoted(st) + "," +
         problem;
}

// A request line: envelope around `body` (which starts with "kind").
std::string request(const std::string& id, const std::string& body) {
  return "{\"v\":1,\"id\":\"" + id + "\"," + body + "}";
}

std::vector<std::string> with_ids(const std::string& prefix,
                                  const std::vector<std::string>& bodies) {
  std::vector<std::string> out;
  out.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    out.push_back(request(prefix + str(static_cast<std::int64_t>(i)), bodies[i]));
  }
  return out;
}

// The paper's 3D sizes (Section 5): S in {384, 512, 640},
// T in {128..640}, T <= S.
std::vector<std::string> paper_problems_3d() {
  std::vector<std::string> out;
  for (const std::int64_t s : {384, 512, 640}) {
    for (const std::int64_t t : {128, 256, 384, 512, 640}) {
      if (t <= s) out.push_back(problem3d(s, t));
    }
  }
  return out;
}

// Draws a rank in [0, cum.size()) from a cumulative weight table.
std::size_t zipf(SeedRng& rng, const std::vector<double>& cum) {
  const double u = rng.unit() * cum.back();
  return std::min(cum.size() - 1,
                  static_cast<std::size_t>(
                      std::upper_bound(cum.begin(), cum.end(), u) -
                      cum.begin()));
}

// One request class: its members in seeded order.
struct Slot {
  std::vector<std::string> members;  // request heads
  std::size_t position = 0;          // index within the block
};

}  // namespace

std::vector<std::string> cold_tune_lines(std::uint64_t seed, std::size_t n) {
  // Every request starts on a (device, stencil, problem) no earlier
  // request touched, so each one builds a cold session — except the
  // deliberate follow-ups below. The 2D extents are the paper's sizes,
  // S in {4096, 8192} and T from 1024 to 16384, with eight T values
  // between them added so a run cannot exhaust the cold problems.
  //
  // The block: 78 2D classes — (GPU, S, T) and (CPU, T) at S = 4096 —
  // visited with stride 7, so devices, extents and sizes interleave,
  // and a 3D class (one per device) after every eighth. A 2D member is
  // one 2D catalogue stencil; a 3D member one 3D stencil and paper
  // size. Per class and block: compare_strategies in one of four
  // (rotating with the block), best_tile otherwise; and one class in
  // four is asked again right away at another delta, as a client
  // sweeping options would — that request reuses the service's warm
  // session. ~80/20 best_tile/compare over the stream. The stream
  // ends when the 2D members run out (five blocks).
  SeedRng rng(seed ^ 0xc01dULL);
  std::vector<std::string> problems;  // problem fragments
  std::vector<std::string_view> devices;
  for (const std::string_view dev : kDevices) {
    const bool gpu = dev == kGpus[0] || dev == kGpus[1];
    for (const std::int64_t t : {1024, 1280, 1536, 2048, 2560, 3072, 4096,
                                 5120, 6144, 8192, 10240, 12288, 16384}) {
      for (const std::int64_t size : {4096, 8192}) {
        if (!gpu && size == 8192) continue;
        problems.push_back(problem2d(size, t));
        devices.push_back(dev);
      }
    }
  }
  // Each device's 3D problems, dealt round-robin over its 3D classes
  // so no two classes share a member.
  std::vector<std::vector<std::string>> pool3d(kDevices.size());
  for (std::size_t d = 0; d < kDevices.size(); ++d) {
    for (const std::string_view st : kStencils3D) {
      for (const std::string& p3 : paper_problems_3d()) {
        pool3d[d].push_back(head(kDevices[d], st, p3));
      }
    }
    shuffle(rng, pool3d[d]);
  }
  std::vector<std::size_t> classes3d(kDevices.size());  // per device
  for (std::size_t j = 0; j < problems.size() / 8; ++j) {
    ++classes3d[j % kDevices.size()];
  }
  std::vector<Slot> block;
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const std::size_t c = (k * 7) % problems.size();
    Slot s;
    for (const std::string_view st : kStencils2D) {
      s.members.push_back(head(devices[c], st, problems[c]));
    }
    shuffle(rng, s.members);
    s.position = block.size();
    block.push_back(std::move(s));
    if (k % 8 == 7) {
      const std::size_t j = k / 8;  // this 3D class's index
      const std::size_t d = j % kDevices.size();
      Slot s3;
      for (std::size_t m = j / kDevices.size(); m < pool3d[d].size();
           m += classes3d[d]) {
        s3.members.push_back(pool3d[d][m]);
      }
      s3.position = block.size();
      block.push_back(std::move(s3));
    }
  }

  std::vector<std::string> bodies;
  for (std::size_t b = 0; b < kStencils2D.size() && bodies.size() < n; ++b) {
    for (const Slot& s : block) {
      const std::string& h = s.members[b];
      const std::size_t phase = (s.position + b) % 4;
      if (phase == 0) {
        bodies.push_back("\"kind\":\"compare_strategies\"," + h +
                         ",\"exhaustive_cap\":150,\"baseline_count\":40");
      } else {
        bodies.push_back("\"kind\":\"best_tile\"," + h + ",\"delta\":0.1");
      }
      if (phase == 2) {
        bodies.push_back("\"kind\":\"best_tile\"," + h + ",\"delta\":0.05");
      }
    }
  }
  bodies.resize(std::min(n, bodies.size()));
  return with_ids("c", bodies);
}

HotMix hot_mix_lines(std::uint64_t seed, std::size_t prefill_n,
                     std::size_t stream_n) {
  SeedRng rng(seed ^ 0x407ULL);
  const std::string small_enum =
      ",\"enum\":{\"tT_max\":8,\"tS1_max\":12,\"tS2_max\":192}";
  auto tile = [&] {
    return "\"tile\":{\"tT\":" +
           str(4 + 2 * static_cast<std::int64_t>(rng.below(3))) +
           ",\"tS1\":" + str(8 + 4 * static_cast<std::int64_t>(rng.below(3))) +
           ",\"tS2\":" + str(64 + 32 * static_cast<std::int64_t>(rng.below(5))) +
           "}";
  };

  // The prefill: small 2D problems on a 32-lattice (S in 256..1024,
  // T in {32, 64, 128}); by position, 8 of every 20 are predict, 7
  // best_tile (at one of three deltas) and 5 lint.
  struct Stored {
    std::string body;
    bool best_tile = false;
    std::string dev, st;
    std::int64_t s = 0, t = 0;
  };
  std::vector<Stored> stored;
  std::set<std::string> seen;
  while (stored.size() < prefill_n) {
    Stored e;
    e.dev = std::string(kGpus[rng.below(kGpus.size())]);
    e.st = std::string(kPaper2D[rng.below(kPaper2D.size())]);
    e.s = 256 + 32 * static_cast<std::int64_t>(rng.below(25));
    e.t = std::int64_t{32} << rng.below(3);
    const std::string h = head(e.dev, e.st, problem2d(e.s, e.t));
    const std::size_t kind = stored.size() % 20;
    if (kind < 8) {
      e.body = "\"kind\":\"predict\"," + h + "," + tile() +
               ",\"threads\":{\"n1\":" + str(32 << rng.below(2)) +
               ",\"n2\":" + str(2 << rng.below(2)) + "}";
    } else if (kind < 15) {
      constexpr std::array<std::string_view, 3> kPrefillDeltas = {"0.05", "0.1",
                                                                  "0.15"};
      e.best_tile = true;
      e.body = "\"kind\":\"best_tile\"," + h + small_enum + ",\"delta\":" +
               std::string(kPrefillDeltas[rng.below(kPrefillDeltas.size())]);
    } else {
      e.body = "\"kind\":\"lint\"," + h + "," + tile();
    }
    if (seen.insert(e.body).second) stored.push_back(std::move(e));
  }

  HotMix out;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    out.prefill.push_back(
        request("p" + str(static_cast<std::int64_t>(i)), stored[i].body));
  }

  // Popularity: zipfian weights 1/(r+1)^0.9 over the stored keys in
  // prefill order, so the request kinds interleave down the ranks just
  // as they do in the prefill.
  std::vector<double> cum;
  double total = 0.0;
  for (std::size_t r = 0; r < stored.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
    cum.push_back(total);
  }
  std::vector<std::size_t> best_tiles;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (stored[i].best_tile) best_tiles.push_back(i);
  }

  // A near miss: a stored best_tile's (device, stencil, T) on a size
  // 16 + 32k off the prefill lattice, never requested before. Empty
  // once that space is exhausted.
  auto near_miss = [&]() -> std::string {
    for (int attempt = 0; attempt < 10000 && !best_tiles.empty(); ++attempt) {
      const Stored& base = stored[best_tiles[rng.below(best_tiles.size())]];
      const std::int64_t off =
          (rng.below(2) != 0 ? 1 : -1) *
          (16 + 32 * static_cast<std::int64_t>(rng.below(4)));
      std::string body =
          "\"kind\":\"best_tile\"," +
          head(base.dev, base.st, problem2d(base.s + off, base.t)) + small_enum;
      if (seen.insert(body).second) return body;
    }
    return {};
  };

  // By position in every 50 requests: one stats poll, four near
  // misses evenly spaced around it, store hits otherwise. The third
  // near miss is sent twice in a row, as a retrying client would: the
  // second copy joins the first's computation while it is in flight.
  std::string last_miss;
  for (std::size_t i = 0; i < stream_n; ++i) {
    const std::size_t pos = i % 50;
    std::string body;
    if (pos == 25) {
      body = "\"kind\":\"stats\"";
    } else if (pos == 6 || pos == 18 || pos == 31 || pos == 43) {
      body = last_miss = near_miss();
    } else if (pos == 32) {
      body = last_miss;
    }
    if (body.empty()) body = stored[zipf(rng, cum)].body;
    out.stream.push_back(request("h" + str(static_cast<std::int64_t>(i)), body));
  }
  return out;
}

std::vector<std::string> vcycle_lines(std::uint64_t seed, std::size_t n) {
  // Classes: (levels, base size) with a coarsest level of at least
  // 64 — 16 of them, in an interleaved fixed order. Members: device x
  // smoother x smoothing count x smoother T x coarse-solve T.
  SeedRng rng(seed ^ 0x5c1eULL);
  std::vector<std::pair<std::int64_t, std::int64_t>> classes;
  for (const std::int64_t levels : {2, 3, 4}) {
    for (const std::int64_t base : {256, 384, 512, 640, 768, 1024}) {
      if ((base >> (levels - 1)) >= 64) classes.emplace_back(levels, base);
    }
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> order;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    order.push_back(classes[(k * 7) % classes.size()]);
  }

  struct Member {
    std::string_view dev, smoother;
    std::int64_t nu, t_smooth, t_solve;
  };
  std::vector<std::vector<Member>> members(order.size());
  for (std::vector<Member>& m : members) {
    for (const std::string_view dev : kGpus) {
      for (const std::string_view sm : {"Jacobi2D", "Heat2D"}) {
        for (const std::int64_t nu : {1, 2, 3, 4}) {
          for (const std::int64_t ts : {4, 8}) {
            for (const std::int64_t tc : {8, 16, 32}) {
              m.push_back({dev, sm, nu, ts, tc});
            }
          }
        }
      }
    }
    shuffle(rng, m);
  }

  std::vector<std::string> bodies;
  for (std::size_t b = 0; bodies.size() < n && b < members[0].size(); ++b) {
    for (std::size_t k = 0; k < order.size() && bodies.size() < n; ++k) {
      const auto [levels, base] = order[k];
      const Member& m = members[k][b];
      std::string stages, prev;
      auto stage = [&](const std::string& id, std::string_view st,
                       std::int64_t s, std::int64_t t, std::int64_t repeat,
                       std::int64_t level) {
        if (!stages.empty()) stages += ",";
        stages += "{\"id\":\"" + id + "\",\"stencil\":" + quoted(st) + "," +
                  problem2d(s, t);
        if (repeat > 1) stages += ",\"repeat\":" + str(repeat);
        if (!prev.empty()) stages += ",\"after\":[\"" + prev + "\"]";
        stages += ",\"level\":" + str(level) + "}";
        prev = id;
      };
      for (std::int64_t l = 0; l + 1 < levels; ++l) {
        const std::int64_t s = base >> l;
        stage("smooth_l" + str(l), m.smoother, s, m.t_smooth, m.nu, l);
        stage("residual_l" + str(l), "Laplacian2D", s, 2, 1, l);
        stage("restrict_" + str(l) + str(l + 1), "Gradient2D", s / 2, 2, 1,
              l + 1);
      }
      stage("solve_l" + str(levels - 1), m.smoother, base >> (levels - 1),
            m.t_solve, 1, levels - 1);
      for (std::int64_t l = levels - 2; l >= 0; --l) {
        const std::int64_t s = base >> l;
        stage("prolong_" + str(l + 1) + str(l), "Gradient2D", s, 2, 1, l);
        stage("smooth_l" + str(l) + "_up", m.smoother, s, m.t_smooth, m.nu, l);
      }
      bodies.push_back("\"kind\":\"pipeline\",\"device\":" + quoted(m.dev) +
                       ",\"pipeline\":{\"pipeline_version\":1,\"name\":\"vcycle" +
                       str(levels) + "\",\"stages\":[" + stages + "]}");
    }
  }
  return with_ids("v", bodies);
}

std::vector<std::string> sweep_lines(std::uint64_t seed, std::size_t n) {
  // Fig. 6 shape: the paper's 2D benchmarks at the paper's 2D sizes on
  // the GPUs. Classes: (GPU, T) cycling with period 10, the two sizes
  // alternating every second class (swapped in the second half, so
  // each triple occurs once); members: the four stencils. Three of every
  // five classes (rotating with the block) sweep compare_strategies,
  // the others best_tile.
  SeedRng rng(seed ^ 0x5eedULL);
  std::vector<std::vector<std::string>> block;
  for (std::size_t j = 0; j < 20; ++j) {
    std::vector<std::string> m;
    for (const std::string_view st : kPaper2D) {
      m.push_back(head(kGpus[j % 2], st,
                       problem2d(((j % 10) / 2 + j / 10) % 2 == 0 ? 4096 : 8192,
                                 kPaperT2D[j % 5])));
    }
    shuffle(rng, m);
    block.push_back(std::move(m));
  }
  std::vector<std::string> bodies;
  for (std::size_t b = 0; bodies.size() < n && b < 32; ++b) {
    const std::size_t round = b / kPaper2D.size();
    for (std::size_t j = 0; j < block.size() && bodies.size() < n; ++j) {
      const std::string& h = block[j][b % kPaper2D.size()];
      bodies.push_back((j + b) % 5 < 3
                           ? "\"kind\":\"compare_strategies\"," + h +
                                 ",\"exhaustive_cap\":" +
                                 std::string(kCaps[round]) +
                                 ",\"baseline_count\":40"
                           : "\"kind\":\"best_tile\"," + h + ",\"delta\":" +
                                 std::string(kDeltas[round]));
    }
  }
  return with_ids("s", bodies);
}

}  // namespace perfbench

// cypbench — in-process helper of the repo benchmark (perfbench/run.py).
//
// The end-to-end numbers come from the shipped `cyptrace` binary. This
// helper supplies what the CLI cannot: reference answers to check the
// CLI's outputs against, the seeded call-site draw, and the traced run
// that splits a workload's time into the layers under src/. Spans and
// counts are recorded here, around calls into each layer's public API;
// nothing under src/ is instrumented.
//
//   cypbench host
//   cypbench draw   --trace F --seed N
//   cypbench oracle-raw   --workload W --procs P --threads T --out DIR
//   cypbench oracle-trace --read replay|stats|query --trace F --out DIR
//                         [--spec SPEC]
//   cypbench layers trace-lu   --stage bare|ctt|full --workload W --procs P
//                              --threads T [--out F]
//   cypbench layers merge-cg   --rankdir D --budget BYTES --out F
//   cypbench layers analyze-cg --read replay|stats|query --trace F
//                              [--spec SPEC --out DIR]
//
// Every subcommand prints one JSON object on stdout; oracle-* also write
// one file per answer into DIR. Exit 1 on any error.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cst/builder.hpp"
#include "cypress/decompress.hpp"
#include "cypress/merge_stream.hpp"
#include "driver/pipeline.hpp"
#include "minic/compile.hpp"
#include "query/cursor.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "replay/simulator.hpp"
#include "support/io.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "trace/matrix.hpp"
#include "trace/stats.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

namespace {

// ---- output ----------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat JSON object builder: numbers and strings, emitted in key order.
class JsonObject {
 public:
  void num(const std::string& k, double v) { fields_[k] = jsonNumber(v); }
  void str(const std::string& k, const std::string& v) {
    fields_[k] = jsonString(v);
  }
  void raw(const std::string& k, const std::string& json) { fields_[k] = json; }
  std::string render() const {
    std::string out = "{";
    for (const auto& [k, v] : fields_) {
      if (out.size() > 1) out += ",";
      out += jsonString(k) + ":" + v;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::string> fields_;
};

void writeText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  CYP_CHECK(out.good(), "cannot open " << path << " for writing");
  out << text;
}

std::vector<uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CYP_CHECK(in.good(), "cannot open " << path);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

double peakRssMb() {
  return static_cast<double>(io::peakRssBytes()) / (1024.0 * 1024.0);
}

// ---- tracing ---------------------------------------------------------

/// Spans (name, start, end, parent) kept in memory and written out once
/// at the end. Spans open and close on the main thread only.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int parent = -1;
  };

  template <typename F>
  auto span(const std::string& name, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, nowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() {
        t->spans_[static_cast<size_t>(id)].endNs = nowNs();
        t->open_.pop_back();
      }
    } closer{this, id};
    return f();
  }

  /// Total seconds of every span called `name`.
  double seconds(const std::string& name) const {
    uint64_t ns = 0;
    for (const Span& s : spans_)
      if (s.name == name) ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
  }

  /// Total seconds of the spans that have no parent.
  double topLevelSeconds() const {
    uint64_t ns = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
  }

  std::string render() const {
    std::string out = "[";
    const uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) out += ",";
      out += "{\"name\":" + jsonString(s.name) +
             ",\"start_s\":" + jsonNumber((s.startNs - base) * 1e-9) +
             ",\"end_s\":" + jsonNumber((s.endNs - base) * 1e-9) +
             ",\"parent\":" + std::to_string(s.parent) + "}";
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Counting and timing decorator over the public io::IoBackend seam.
/// Counters are atomic because a backend may be driven from pool lanes.
struct IoCounters {
  std::atomic<uint64_t> bytesWritten{0}, writeNs{0};
  std::atomic<uint64_t> fsyncs{0}, fsyncNs{0};
  std::atomic<uint64_t> renames{0}, renameNs{0};
  std::atomic<uint64_t> bytesRead{0}, readNs{0};

  double busySeconds() const {
    return static_cast<double>(writeNs + fsyncNs + renameNs + readNs) * 1e-9;
  }
};

class CountingIoFile final : public io::IoFile {
 public:
  CountingIoFile(std::unique_ptr<io::IoFile> base, IoCounters& c)
      : base_(std::move(base)), c_(c) {}
  void write(std::span<const uint8_t> bytes) override {
    const uint64_t t0 = nowNs();
    base_->write(bytes);
    c_.writeNs += nowNs() - t0;
    c_.bytesWritten += bytes.size();
  }
  void sync() override {
    const uint64_t t0 = nowNs();
    base_->sync();
    c_.fsyncNs += nowNs() - t0;
    c_.fsyncs += 1;
  }
  void close() override { base_->close(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<io::IoFile> base_;
  IoCounters& c_;
};

class CountingIo final : public io::IoBackend {
 public:
  CountingIo(io::IoBackend& base, IoCounters& c) : base_(base), c_(c) {}

  std::unique_ptr<io::IoFile> openWrite(const std::string& path,
                                        bool append) override {
    return std::make_unique<CountingIoFile>(base_.openWrite(path, append), c_);
  }
  std::vector<uint8_t> readAll(const std::string& path) override {
    const uint64_t t0 = nowNs();
    std::vector<uint8_t> out = base_.readAll(path);
    c_.readNs += nowNs() - t0;
    c_.bytesRead += out.size();
    return out;
  }
  void rename(const std::string& from, const std::string& to) override {
    const uint64_t t0 = nowNs();
    base_.rename(from, to);
    c_.renameNs += nowNs() - t0;
    c_.renames += 1;
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  void remove(const std::string& path) override { base_.remove(path); }
  void truncate(const std::string& path, uint64_t size) override {
    base_.truncate(path, size);
  }
  uint64_t fileSize(const std::string& path) override {
    return base_.fileSize(path);
  }
  void createDirectories(const std::string& path) override {
    base_.createDirectories(path);
  }

 private:
  io::IoBackend& base_;
  IoCounters& c_;
};

void putIo(JsonObject& m, const IoCounters& c) {
  m.num("io.write_s", static_cast<double>(c.writeNs) * 1e-9);
  m.num("io.bytes_written", static_cast<double>(c.bytesWritten));
  m.num("io.fsyncs", static_cast<double>(c.fsyncs));
  m.num("io.fsync_s", static_cast<double>(c.fsyncNs) * 1e-9);
  m.num("io.renames", static_cast<double>(c.renames));
  m.num("io.bytes_read", static_cast<double>(c.bytesRead));
}

// ---- arguments -------------------------------------------------------

struct Args {
  std::string command, sub;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& k) const {
    auto it = flags.find(k);
    CYP_CHECK(it != flags.end(), "missing --" << k);
    return it->second;
  }
  long long num(const std::string& k) const { return std::stoll(get(k)); }
  long long num(const std::string& k, long long dflt) const {
    auto it = flags.find(k);
    return it == flags.end() ? dflt : std::stoll(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args a;
  int i = 1;
  CYP_CHECK(i < argc, "missing command");
  a.command = argv[i++];
  if (a.command == "layers") {
    CYP_CHECK(i < argc, "missing layer group");
    a.sub = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string f = argv[i];
    CYP_CHECK(f.rfind("--", 0) == 0 && i + 1 < argc, "bad argument " << f);
    a.flags[f.substr(2)] = argv[++i];
  }
  return a;
}

struct LoadedTrace {
  cst::Tree tree;
  std::optional<core::MergedCtt> merged;
  size_t bytes = 0;
};

void loadTrace(const std::string& path, LoadedTrace& out) {
  const std::vector<uint8_t> bytes = readBytes(path);
  out.bytes = bytes.size();
  out.merged.emplace(core::MergedCtt::deserializeWithTree(bytes, out.tree));
}

int numRanksOf(const core::MergedCtt& m) {
  const RankSet covered = query::coveredRanks(m);
  return covered.empty() ? 0 : covered.ranks().back() + 1;
}

// ---- host ------------------------------------------------------------

int cmdHost() {
  JsonObject o;
  o.num("hardware_concurrency", std::thread::hardware_concurrency());
  o.str("compiler", __VERSION__);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  o.raw("sanitized", "true");
#else
  o.raw("sanitized", "false");
#endif
#ifdef NDEBUG
  o.raw("ndebug", "true");
#else
  o.raw("ndebug", "false");
#endif
  std::printf("%s\n", o.render().c_str());
  return 0;
}

// ---- seeded call-site draw -------------------------------------------

bool callSiteValid(const core::MergedCtt& m, int32_t src, int32_t dst,
                   uint64_t iter) {
  try {
    query::callSitesAt(m, src, dst, iter);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Number of iterations `src` ran of the default loop: the largest k for
/// which the query is answerable, plus one (0 when none is).
uint64_t tripCount(const core::MergedCtt& m, int32_t src, int32_t dst) {
  if (!callSiteValid(m, src, dst, 0)) return 0;
  uint64_t lo = 0, hi = 1;  // lo valid; find an invalid hi
  while (callSiteValid(m, src, dst, hi)) {
    lo = hi;
    CYP_CHECK(hi < (1ull << 40), "unbounded trip count");
    hi *= 2;
  }
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (callSiteValid(m, src, dst, mid) ? lo : hi) = mid;
  }
  return lo + 1;
}

/// Draw (src, dst, iter) from the trace's own matrix: a communicating
/// pair and an iteration inside src's trip count, preferring a triple
/// whose answer is non-empty. std::mt19937_64 with modulo reduction so
/// the draw is identical on every standard library.
int cmdDraw(const Args& a) {
  LoadedTrace t;
  loadTrace(a.get("trace"), t);
  const core::MergedCtt& m = *t.merged;
  const auto cells = query::commMatrix(m, 1);
  CYP_CHECK(!cells.empty(), "trace has no point-to-point messages");
  std::mt19937_64 rng(static_cast<uint64_t>(a.num("seed")));
  std::optional<std::string> chosen;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const query::MatrixCell& c = cells[rng() % cells.size()];
    const uint64_t trips = tripCount(m, c.src, c.dst);
    if (trips == 0) continue;
    const uint64_t iter = rng() % trips;
    std::ostringstream spec;
    spec << "callsites src=" << c.src << " dst=" << c.dst << " iter=" << iter;
    chosen = spec.str();
    if (!query::callSitesAt(m, c.src, c.dst, iter).empty()) break;
  }
  CYP_CHECK(chosen, "no answerable call-site triple in 64 draws");
  JsonObject o;
  o.str("spec", *chosen);
  std::printf("%s\n", o.render().c_str());
  return 0;
}

// ---- oracles ---------------------------------------------------------

void writeRawAnswers(const trace::RawTrace& raw, const std::string& dir) {
  writeText(dir + "/summary.json",
            query::renderSummary(query::summaryFromRaw(raw), RankSet{}));
  writeText(dir + "/hist.json",
            query::renderHistogram(query::histogramFromRaw(raw)));
  writeText(dir + "/matrix.json",
            query::renderMatrix(query::commMatrixFromRaw(raw)));
  writeText(dir + "/colls.json",
            query::renderCollectives(query::collectivesFromRaw(raw)));
}

/// Answers over the raw event trace of an in-process run at --threads,
/// plus that run's merged trace (trace.cyp) so the caller can check the
/// CLI's single-threaded output against a multi-threaded run.
int cmdOracleRaw(const Args& a) {
  driver::Options opts;
  opts.procs = static_cast<int>(a.num("procs"));
  opts.threads = static_cast<int>(a.num("threads"));
  opts.withScala = false;
  opts.withScala2 = false;
  const driver::RunOutput run = driver::runWorkload(a.get("workload"), opts);
  const std::string dir = a.get("out");
  writeRawAnswers(run.raw, dir);
  VectorSink sink;
  ByteWriter w(sink);
  driver::mergeCypress(run, nullptr, opts.threads).serializeTo(w);
  w.flush();
  const std::vector<uint8_t>& bytes = sink.bytes();
  writeText(dir + "/trace.cyp", std::string(bytes.begin(), bytes.end()));
  JsonObject o;
  o.num("events", static_cast<double>(run.raw.totalEvents()));
  std::printf("%s\n", o.render().c_str());
  return 0;
}

/// Decompress-then-scan answers for a trace file, for one of its reads:
///   replay  replay of the expanded events (event count, prediction)
///   stats   the stats block the `stats` command prints
///   query   the *FromRaw twins, plus the engine's own answer to the
///           call-site spec (there is no decompress-then-scan twin for it)
/// Every read starts from core::decompressAll.
int cmdOracleTrace(const Args& a) {
  LoadedTrace t;
  loadTrace(a.get("trace"), t);
  const core::MergedCtt& m = *t.merged;
  const std::string dir = a.get("out");
  const std::string read = a.get("read");
  const trace::RawTrace raw = core::decompressAll(m, numRanksOf(m));
  JsonObject o;
  o.num("events", static_cast<double>(raw.totalEvents()));
  if (read == "replay") {
    const replay::Prediction p = replay::simulate(raw);
    o.num("replay_events", static_cast<double>(p.totalEvents));
    o.num("predicted_ns", static_cast<double>(p.predictedNs));
  } else if (read == "stats") {
    writeText(dir + "/stats.txt",
              trace::computeStats(raw).toString() + "\n" +
                  "communication volume heat map:\n" +
                  trace::renderMatrix(trace::commMatrix(raw), 32));
  } else {
    CYP_CHECK(read == "query", "unknown read " << read);
    writeRawAnswers(raw, dir);
    writeText(dir + "/callsites.json", query::runQuery(m, a.get("spec")));
  }
  std::printf("%s\n", o.render().c_str());
  return 0;
}

// ---- traced per-layer runs -------------------------------------------

/// One stage of the online phase as `cyptrace run` performs it. Each
/// stage runs in a fresh process: a second traced run in one process
/// read up to 1.5x slower than the first, most likely from allocator
/// state the first left behind, which would be charged to the layers.
///   bare   the VM and engine with no observers (--threads sets lanes)
///   ctt    the run with CYPRESS recorders only
///   full   the CLI's configuration (CYPRESS + raw recorders), then
///          merge, serialize and the one atomic write to --out
/// Every stage compiles and analyzes the program first.
void layersTraceLu(const Args& a, Tracer& tr, JsonObject& m) {
  const std::string name = a.get("workload");
  const std::string stage = a.get("stage");
  const int procs = static_cast<int>(a.num("procs"));
  const int threads = static_cast<int>(a.num("threads"));
  const std::string source = workloads::get(name).source(procs, 1);

  auto module = tr.span("minic.compile",
                        [&] { return minic::compileProgram(source); });
  cst::StaticResult sr = tr.span(
      "cst.analyze", [&] { return cst::analyzeAndInstrument(*module); });
  m.num("minic.compile_s", tr.seconds("minic.compile"));
  m.num("cst.analyze_s", tr.seconds("cst.analyze"));
  m.num("cst.vertices", sr.cst.numNodes());
  auto prog = std::make_shared<driver::CompiledProgram>();
  prog->stats = sr.stats;
  prog->cst = std::make_shared<const cst::Tree>(std::move(sr.cst));
  prog->module = std::move(module);

  if (stage == "bare") {
    const vm::RunResult bare = tr.span("vm.run", [&] {
      simmpi::Engine::Config cfg;
      cfg.numRanks = procs;
      simmpi::Engine engine(cfg);
      std::vector<trace::Observer*> none(static_cast<size_t>(procs), nullptr);
      vm::RunOptions ro;
      ro.instructionLimitPerRank = 1ull << 34;
      ro.threads = threads;
      return vm::run(*prog->module, engine, none, ro);
    });
    m.num("vm.run_s", tr.seconds("vm.run"));
    m.num("vm.instructions", static_cast<double>(bare.totalInstructions));
    return;
  }

  driver::Options opts;
  opts.procs = procs;
  opts.threads = threads;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.precompiled = prog;
  if (stage == "ctt") {
    opts.withRaw = false;
    const driver::RunOutput ctt = tr.span(
        "run.ctt", [&] { return driver::runSource(name, source, opts); });
    m.num("run.ctt_s", tr.seconds("run.ctt"));
    m.num("cypress.hook_cpu_s", ctt.cypressIntraSeconds());
    m.num("cypress.mem_per_rank_bytes",
          static_cast<double>(ctt.cypressMemoryPerRank()));
    return;
  }
  CYP_CHECK(stage == "full", "unknown trace-lu stage " << stage);

  const driver::RunOutput run = tr.span(
      "run.ctt_raw", [&] { return driver::runSource(name, source, opts); });
  m.num("rss.run_mb", peakRssMb());
  m.num("cypress.events", static_cast<double>(run.raw.totalEvents()));
  size_t rawBytes = 0;
  for (const auto& rt : run.raw.ranks)
    rawBytes += rt.events.capacity() * sizeof(trace::Event);
  m.num("trace.raw_bytes", static_cast<double>(rawBytes));

  const core::MergedCtt merged = tr.span("cypress.merge", [&] {
    return driver::mergeCypress(run, nullptr, threads);
  });
  m.num("rss.merge_mb", peakRssMb());
  const std::vector<uint8_t> bytes = tr.span("cypress.serialize", [&] {
    VectorSink sink;
    ByteWriter w(sink);
    merged.serializeTo(w);
    w.flush();
    return sink.take();
  });
  m.num("cypress.merged_bytes", static_cast<double>(bytes.size()));

  IoCounters ioc;
  CountingIo cio(io::realIo(), ioc);
  tr.span("io.write", [&] {
    io::AtomicFileWriter out(cio, a.get("out"));
    out.write(bytes);
    out.commit();
  });
  putIo(m, ioc);

  m.num("run.ctt_raw_s", tr.seconds("run.ctt_raw"));
  m.num("cypress.merge_s", tr.seconds("cypress.merge"));
  m.num("cypress.serialize_s", tr.seconds("cypress.serialize"));
  // The in-process equivalent of one `cyptrace run`.
  m.num("op_equiv_s", tr.seconds("minic.compile") + tr.seconds("cst.analyze") +
                          tr.seconds("run.ctt_raw") +
                          tr.seconds("cypress.merge") +
                          tr.seconds("cypress.serialize") +
                          tr.seconds("io.write"));
}

/// `cyptrace merge` split per layer: opening the rank directory, rank
/// loads (flate decompress + CTT deserialize, timed by wrapping the
/// CttSource), the streaming merge's own work, and every disk operation
/// through a counting io::IoBackend passed as StreamingMergeOptions::io.
void layersMergeCg(const Args& a, Tracer& tr, JsonObject& m) {
  IoCounters ioc;
  CountingIo cio(io::realIo(), ioc);
  const std::string dir = a.get("rankdir");
  const driver::RankTraceDir ranks = tr.span("driver.open_rankdir", [&] {
    return driver::openRankTraceDir(dir, &cio);
  });

  uint64_t loadNs = 0, loadIoNs = 0, loads = 0;
  const core::CttSource source = [&](int r) {
    const uint64_t io0 = ioc.readNs;
    const uint64_t t0 = nowNs();
    std::optional<core::Ctt> ctt = ranks.load(r);
    loadNs += nowNs() - t0;
    loadIoNs += ioc.readNs - io0;
    ++loads;
    return ctt;
  };
  core::StreamingMergeOptions mo;
  mo.budgetBytes = static_cast<uint64_t>(a.num("budget"));
  mo.workDir = dir + "/merge.work";
  mo.io = &cio;
  mo.outPath = a.get("out");
  const double ioBefore = ioc.busySeconds();
  const core::StreamingMergeResult res = tr.span("cypress.stream_merge", [&] {
    return core::streamingMerge(ranks.numRanks, source, *ranks.cst, mo);
  });
  CYP_CHECK(res.droppedRanks.empty(), "streaming merge dropped ranks");

  const double loadS = static_cast<double>(loadNs) * 1e-9;
  const double mergeIoS = ioc.busySeconds() - ioBefore -
                          static_cast<double>(loadIoNs) * 1e-9;
  m.num("driver.open_rankdir_s", tr.seconds("driver.open_rankdir"));
  m.num("cypress.rank_load_s", loadS);
  m.num("cypress.rank_loads", static_cast<double>(loads));
  m.num("cypress.stream_merge_self_s",
        tr.seconds("cypress.stream_merge") - loadS - mergeIoS);
  m.num("merge.batches", static_cast<double>(res.batches));
  m.num("merge.reduction_rounds", static_cast<double>(res.reductionRounds));
  m.num("merge.steps", static_cast<double>(res.stepsExecuted));
  putIo(m, ioc);
  m.num("op_equiv_s", tr.seconds("driver.open_rankdir") +
                          tr.seconds("cypress.stream_merge"));
}

/// One of the three reads of one CTT, as its command makes it:
///   replay  the CompressedCursor walk (`cyptrace replay`)
///   stats   full expansion through decompressAll (`cyptrace stats`)
///   query   compressed-domain queries (`cyptrace query`), at the CLI's
///           default of one thread; each answer is written into --out
/// Each read runs in its own process, so its peak RSS is its own.
void layersAnalyzeCg(const Args& a, Tracer& tr, JsonObject& m) {
  const std::string read = a.get("read");
  const std::vector<uint8_t> bytes = readBytes(a.get("trace"));
  cst::Tree tree;
  const core::MergedCtt merged = tr.span("cypress.deserialize", [&] {
    return core::MergedCtt::deserializeWithTree(bytes, tree);
  });
  const double deser = tr.seconds("cypress.deserialize");
  m.num("cypress.deserialize_s", deser);

  if (read == "replay") {
    uint64_t cursorEvents = 0;
    tr.span("query.cursor_drain", [&] {
      const RankSet covered = query::coveredRanks(merged);
      for (int r : covered.ranks()) {
        query::CompressedCursor c(merged, r);
        while (!c.done()) c.next();
        cursorEvents += c.emitted();
      }
    });
    const replay::Prediction p =
        tr.span("replay.simulate", [&] { return replay::simulate(merged); });
    m.num("query.cursor_drain_s", tr.seconds("query.cursor_drain"));
    m.num("query.cursor_events", static_cast<double>(cursorEvents));
    m.num("replay.simulate_s", tr.seconds("replay.simulate"));
    m.num("replay.self_s",
          tr.seconds("replay.simulate") - tr.seconds("query.cursor_drain"));
    m.num("replay.events", static_cast<double>(p.totalEvents));
    m.num("op_equiv_s", deser + tr.seconds("replay.simulate"));
    return;
  }
  if (read == "stats") {
    const trace::RawTrace raw = tr.span("cypress.decompress", [&] {
      return core::decompressAll(merged, numRanksOf(merged));
    });
    tr.span("trace.stats", [&] {
      return trace::computeStats(raw).toString() +
             trace::renderMatrix(trace::commMatrix(raw), 32);
    });
    m.num("cypress.decompress_s", tr.seconds("cypress.decompress"));
    m.num("cypress.decompressed_events",
          static_cast<double>(raw.totalEvents()));
    m.num("trace.stats_s", tr.seconds("trace.stats"));
    m.num("op_equiv_s", deser + tr.seconds("cypress.decompress") +
                            tr.seconds("trace.stats"));
    return;
  }
  CYP_CHECK(read == "query", "unknown read " << read);

  // Each query is repeated and its median kept: one evaluation is a few
  // milliseconds, too short to read once.
  const std::vector<std::pair<std::string, std::string>> kinds = {
      {"summary", "summary"}, {"hist", "hist"},     {"matrix", "matrix"},
      {"colls", "colls"},     {"callsites", a.get("spec")}};
  constexpr int kQueryReps = 5;
  const std::string dir = a.get("out");
  double queriesS = 0.0;
  for (const auto& [kind, spec] : kinds) {
    std::vector<double> reps;
    std::string answer;
    for (int i = 0; i < kQueryReps; ++i) {
      const uint64_t t0 = nowNs();
      answer = tr.span("query." + kind,
                       [&] { return query::runQuery(merged, spec); });
      reps.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    writeText(dir + "/" + kind + ".json", answer);
    std::sort(reps.begin(), reps.end());
    m.num("query." + kind + "_s", reps[kQueryReps / 2]);
    queriesS += reps[kQueryReps / 2];
  }
  // The in-process equivalent of the query mix: one process per query,
  // each deserializing the trace first.
  m.num("op_equiv_s", static_cast<double>(kinds.size()) * deser + queriesS);
}

int cmdLayers(const Args& a) {
  Tracer tr;
  JsonObject m;
  const uint64_t t0 = nowNs();
  if (a.sub == "trace-lu") layersTraceLu(a, tr, m);
  else if (a.sub == "merge-cg") layersMergeCg(a, tr, m);
  else if (a.sub == "analyze-cg") layersAnalyzeCg(a, tr, m);
  else CYP_CHECK(false, "unknown layer group " << a.sub);
  m.num("traced_wall_s", static_cast<double>(nowNs() - t0) * 1e-9);
  m.num("spans_s", tr.topLevelSeconds());
  JsonObject o;
  o.raw("metrics", m.render());
  o.raw("spans", tr.render());
  std::printf("%s\n", o.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    ThreadPool::configureShared(
        static_cast<unsigned>(std::max<long long>(1, a.num("threads", 1))));
    if (a.command == "host") return cmdHost();
    if (a.command == "draw") return cmdDraw(a);
    if (a.command == "oracle-raw") return cmdOracleRaw(a);
    if (a.command == "oracle-trace") return cmdOracleTrace(a);
    if (a.command == "layers") return cmdLayers(a);
    CYP_CHECK(false, "unknown command " << a.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cypbench: %s\n", e.what());
  }
  return 1;
}

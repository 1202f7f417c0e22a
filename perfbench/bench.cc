/**
 * @file
 * Drift-cancelled benchmark for the Diffuse runtime.
 *
 * Every Diffuse step is timed against an interleaved hand-written
 * single-thread "twin" doing the same work, and the gated figures are
 * ratios of the two: a shared host's speed drifts by 1.3-1.8x between
 * runs, but it drifts for both sides of a pair alike.
 *
 * Workloads (`--workload`):
 *   stencil        Fig 1 five-point stencil, 1024^2 grid, workers=nproc;
 *                  twin: a two-pass loop with the same adds in order.
 *   black_scholes  apps::BlackScholes, 2^18 options x 4 points;
 *                  twin: BlackScholes::reference.
 *   cg             SolverContext::cg on a 512^2 Poisson matrix, 4
 *                  iterations per solve; twin: petsc-mini KspCg.
 *   serving        nproc closed-loop clients on one SharedContext, each
 *                  session at workers=1, seeded request mix and session
 *                  lifetimes; twin: the same request computed by hand.
 *
 * BENCHMARK.json gates black_scholes and serving. stencil and cg run
 * the same way but are not gated: at workers=nproc their steps depend
 * on whether the pool's parked helpers wake in time, which on a shared
 * host varies from run to run by more than any usable bound (evidence
 * in STEADINESS.md).
 *
 * Layers are measured from outside only: spans around the benchmark's
 * own calls into public functions, plus the runtime's public counters.
 * With `--trace 0` the last stdout line carries the end-to-end
 * metrics; with `--trace 1` it carries the per-layer metrics of a run
 * that is half untraced, half traced (the difference is the tracing
 * overhead), and a Chrome trace-event file is written.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "apps/apps.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/diffuse.h"
#include "cunumeric/ndarray.h"
#include "petsc/petsc.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"

extern char **environ;

namespace {

using namespace diffuse;

// ---- Clocks and statistics -------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double processCpu() { return cpuClock(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpu() { return cpuClock(CLOCK_THREAD_CPUTIME_ID); }

/** Linear-interpolated quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    if (lo + 1 >= v.size())
        return v.back();
    double frac = pos - double(lo);
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double q = 0.5;
    double value = 0.0;
};

Tail
tailOf(const std::vector<double> &v)
{
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75})
        if (double(v.size()) * (1.0 - q) >= 10.0)
            return {q, quantile(v, q)};
    return {0.5, median(v)};
}

/** Samples per tail block: p95 leaves ten samples beyond it. */
constexpr std::size_t kTailBlock = 200;

/**
 * Tail of the per-pair Diffuse/twin ratio, robust to one stall burst
 * on a shared host and to serving's mix of request sizes: the pairs
 * are cut, in order, into blocks of at least kTailBlock; the median
 * over blocks of each block's tail (tailOf) is reported. `q_out`
 * receives the percentile used.
 */
double
blockTail(const std::vector<double> &ratios, double *q_out)
{
    std::size_t blocks = std::max<std::size_t>(1, ratios.size() / kTailBlock);
    std::vector<double> tails;
    for (std::size_t b = 0; b < blocks; b++) {
        std::size_t lo = ratios.size() * b / blocks;
        std::size_t hi = ratios.size() * (b + 1) / blocks;
        Tail tail = tailOf(std::vector<double>(ratios.begin() + long(lo),
                                               ratios.begin() + long(hi)));
        *q_out = tail.q;
        tails.push_back(tail.value);
    }
    return median(tails);
}

/** Run `fn` back to back for `seconds`; returns each call's seconds. */
std::vector<double>
timeLoop(const std::function<void()> &fn, double seconds)
{
    std::vector<double> out;
    double end = wallNow() + seconds;
    while (wallNow() < end || out.empty()) {
        double t0 = wallNow();
        fn();
        out.push_back(wallNow() - t0);
    }
    return out;
}

// ---- Host description -------------------------------------------------

int
hostProcs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; i++)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** Keep `threads` cores busy for `seconds`: after a few idle seconds
 * the host runs even plain threads slowly for ~0.6 s, so every timed
 * phase starts behind this. */
void
spinWarmup(int threads, double seconds)
{
    std::vector<std::thread> pool;
    std::atomic<double> sink{0.0};
    double end = wallNow() + seconds;
    for (int t = 0; t < threads; t++)
        pool.emplace_back([&, t] {
            double x = 1.0 + t;
            while (wallNow() < end)
                for (int i = 0; i < 10000; i++)
                    x = x * 1.0000001 + 1e-9;
            sink.store(x, std::memory_order_relaxed);
        });
    for (auto &th : pool)
        th.join();
}

/** STREAM triad a = b + s*c over `n` doubles split across `threads`
 * plain threads: one pass per call, threads spawned per call. */
struct Triad
{
    std::vector<double> a, b, c;
    int threads;

    Triad(std::size_t n, int t)
        : a(n, 0.0), b(n, 1.0), c(n, 2.0), threads(t)
    {}

    void
    chunk(int t, double s)
    {
        std::size_t n = a.size();
        std::size_t lo = n * std::size_t(t) / std::size_t(threads);
        std::size_t hi = n * std::size_t(t + 1) / std::size_t(threads);
        for (std::size_t i = lo; i < hi; i++)
            a[i] = b[i] + s * c[i];
    }

    void
    pass()
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; t++)
            pool.emplace_back([this, t] { chunk(t, 3.0); });
        for (auto &th : pool)
            th.join();
    }

    /** Sustained GB/s with persistent threads (24 bytes per element:
     * two reads and one write, write-allocate traffic not counted). */
    double
    gbs(double seconds)
    {
        std::vector<std::thread> pool;
        std::vector<double> passes(std::size_t(threads), 0.0);
        double t0 = wallNow();
        double end = t0 + seconds;
        for (int t = 0; t < threads; t++)
            pool.emplace_back([&, t] {
                while (wallNow() < end) {
                    chunk(t, 3.0);
                    passes[std::size_t(t)] += 1.0;
                }
            });
        for (auto &th : pool)
            th.join();
        double elapsed = wallNow() - t0;
        double bytes = sum(passes) / double(threads) * double(a.size()) *
                       24.0;
        return bytes / elapsed / 1e9;
    }
};

/** Median step time in the first 0.5 s after a 3 s idle, divided by
 * the steady median just before the idle. */
double
wakeRatio(const std::function<void()> &step)
{
    double steady = median(timeLoop(step, 0.5));
    std::this_thread::sleep_for(std::chrono::seconds(3));
    double woken = median(timeLoop(step, 0.5));
    return ratio(woken, steady);
}

// ---- Spans --------------------------------------------------------------

/** One span: a benchmark call into a layer, with the core submission
 * seconds (FusionStats planned + replayed) that elapsed inside it. */
struct SpanRec
{
    const char *name = "";
    int parent = -1;
    double t0 = 0.0, t1 = 0.0;
    double submit = 0.0; ///< core submission seconds inside the span
    double plan = 0.0;   ///< of which planned (not replayed)
};

/** Counter snapshot taken at the end of a root span. */
struct CounterRec
{
    double t = 0.0;
    std::map<std::string, double> values;
};

/** Per-thread span buffer, kept in memory and written at exit. A log
 * that is off records nothing (one branch per span). */
struct SpanLog
{
    int tid = 0;
    bool on = false;
    int open = -1;
    std::vector<SpanRec> spans;
    std::vector<CounterRec> counters;
};

double
submitSeconds(DiffuseRuntime *rt)
{
    if (!rt)
        return 0.0;
    const FusionStats &f = rt->fusionStats();
    return f.plannedSubmitSeconds + f.replaySubmitSeconds;
}

double
planSeconds(DiffuseRuntime *rt)
{
    return rt ? rt->fusionStats().plannedSubmitSeconds : 0.0;
}

class Span
{
  public:
    Span(SpanLog &log, const char *name, DiffuseRuntime *rt)
        : log_(log.on ? &log : nullptr), rt_(rt)
    {
        if (!log_)
            return;
        idx_ = int(log_->spans.size());
        SpanRec r;
        r.name = name;
        r.parent = log_->open;
        r.submit = submitSeconds(rt_);
        r.plan = planSeconds(rt_);
        r.t0 = wallNow();
        log_->spans.push_back(r);
        log_->open = idx_;
    }

    ~Span()
    {
        if (!log_)
            return;
        SpanRec &r = log_->spans[std::size_t(idx_)];
        r.t1 = wallNow();
        r.submit = submitSeconds(rt_) - r.submit;
        r.plan = planSeconds(rt_) - r.plan;
        log_->open = r.parent;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    DiffuseRuntime *rt_;
    int idx_ = -1;
};

/** Per-layer self time summed over spans: a span's duration minus its
 * children's, with the core submission seconds inside it moved to the
 * core layer. */
struct LayerTimes
{
    double cunumeric = 0.0; ///< cunumeric.submit: task issue
    double construct = 0.0; ///< app.construct: stores + initial fill
    double exec = 0.0;      ///< core.flush / runtime.read / solvers.cg
    double coreSubmit = 0.0;
    double corePlan = 0.0;
    double roots = 0.0;     ///< root spans (steps or requests)
};

void
addSelfTimes(const SpanLog &log, LayerTimes &out)
{
    const auto &s = log.spans;
    std::vector<double> child_dur(s.size(), 0.0), child_sub(s.size(), 0.0),
        child_plan(s.size(), 0.0);
    for (const SpanRec &r : s)
        if (r.parent >= 0) {
            child_dur[std::size_t(r.parent)] += r.t1 - r.t0;
            child_sub[std::size_t(r.parent)] += r.submit;
            child_plan[std::size_t(r.parent)] += r.plan;
        }
    for (std::size_t i = 0; i < s.size(); i++) {
        const SpanRec &r = s[i];
        double self_core = r.submit - child_sub[i];
        double rest = (r.t1 - r.t0) - child_dur[i] - self_core;
        out.coreSubmit += self_core;
        out.corePlan += r.plan - child_plan[i];
        std::string name = r.name;
        if (r.parent < 0)
            out.roots += 1.0;
        else if (name == "cunumeric.submit")
            out.cunumeric += rest;
        else if (name == "app.construct")
            out.construct += rest;
        else
            out.exec += rest;
    }
}

/** Write every log as Chrome trace-event JSON (Perfetto opens it). */
bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    double t_min = 1e300;
    for (const SpanLog *l : logs)
        for (const SpanRec &r : l->spans)
            t_min = std::min(t_min, r.t0);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
    };
    for (const SpanLog *l : logs) {
        for (const SpanRec &r : l->spans) {
            sep();
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"core_submit_us\":%.3f,\"core_plan_us\":%.3f}}",
                         r.name, l->tid, (r.t0 - t_min) * 1e6,
                         (r.t1 - r.t0) * 1e6, r.submit * 1e6,
                         r.plan * 1e6);
        }
        for (const CounterRec &c : l->counters) {
            sep();
            std::fprintf(f,
                         "{\"name\":\"counters.t%d\",\"ph\":\"C\","
                         "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{",
                         l->tid, l->tid, (c.t - t_min) * 1e6);
            bool f2 = true;
            for (const auto &[k, v] : c.values) {
                std::fprintf(f, "%s\"%s\":%.17g", f2 ? "" : ",",
                             k.c_str(), v);
                f2 = false;
            }
            std::fprintf(f, "}}");
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---- Output checks --------------------------------------------------------

/** |x - y| <= tol * (1 + |y|) element-wise. */
bool
near(const std::vector<double> &x, const std::vector<double> &y,
     double tol)
{
    if (x.size() != y.size())
        return false;
    for (std::size_t i = 0; i < x.size(); i++)
        if (!(std::abs(x[i] - y[i]) <= tol * (1.0 + std::abs(y[i]))))
            return false;
    return true;
}

bool
near(double x, double y, double tol)
{
    return std::abs(x - y) <= tol * (1.0 + std::abs(y));
}

/** Tolerance for results whose reduction order or erf implementation
 * differs from the twin's (sums, CG residuals, Black-Scholes prices). */
constexpr double kTol = 1e-9;

std::vector<double>
uniformVec(std::size_t n, std::uint64_t seed, double lo, double hi)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

/** Every index task has one point per simulated GPU. */
constexpr coord_t kPoints = 4;

rt::MachineConfig
machine()
{
    return rt::MachineConfig::withGpus(int(kPoints));
}

DiffuseOptions
sessionOptions(int workers)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    return o;
}

/** apps::BlackScholes keeps its inputs private; its constructor
 * creates them as the session's next three stores (spot, strike,
 * expiry). Returns the id the next store created will get. */
StoreId
nextStoreId(DiffuseRuntime &rt)
{
    StoreId probe = rt.createStore(Point(coord_t(1)));
    rt.releaseApp(probe);
    return probe + 1;
}

/** Overwrite the three inputs of a just-constructed BlackScholes app
 * (ids from nextStoreId) with the benchmark's seeded data. */
void
seedBlackScholes(DiffuseRuntime &rt, StoreId first,
                 const std::vector<double> &s, const std::vector<double> &k,
                 const std::vector<double> &t)
{
    const std::vector<double> *in[3] = {&s, &k, &t};
    for (int i = 0; i < 3; i++) {
        const StoreMeta &m = rt.storeMeta(first + StoreId(i));
        if (m.shape.volume() != coord_t(in[i]->size()))
            throw std::runtime_error(
                "BlackScholes input stores are not where expected");
        rt.writeStoreF64(first + StoreId(i), *in[i]);
    }
}

/** Anything the sweep and wake probes can step. */
struct Steppable
{
    virtual ~Steppable() = default;
    virtual void step(SpanLog &log) = 0;
};

} // namespace

// ---- Single-client workloads ----------------------------------------------
//
// Each workload W provides:
//   W::Inputs(seed)      host inputs, plus the expected first result;
//   W::Twin(inputs)      the hand-written single-thread twin;
//   W::Sut(inputs, w)    a fresh SharedContext + session at `w` workers
//                        running the app on the inputs;
//   W::firstOk(sut, in)  the bring-up's check of its first result;
//   W::agree(sut, twin)  the steady check of Diffuse against the twin;
//   W::resync(sut, twin) realign stateful twins after a failed check;
//   elems / bytes        per step (bytes computed from array sizes).

namespace {

/** The context, session and array library every Sut starts from. */
struct Bringup
{
    std::shared_ptr<SharedContext> ctx;
    std::unique_ptr<DiffuseRuntime> rt;
    std::unique_ptr<num::Context> nc;

    explicit Bringup(int workers)
        : ctx(SharedContext::create(machine())),
          rt(ctx->createSession(sessionOptions(workers))),
          nc(std::make_unique<num::Context>(*rt))
    {}
};

/** One Fig 1 step on an (n+2)^2 grid, in two passes with the same
 * adds in the same order as the fused Diffuse kernel, so results agree
 * bitwise. `work` holds n^2 doubles. */
void
stencilStep(std::vector<double> &grid, std::vector<double> &work,
            coord_t n)
{
    const coord_t e = n + 2;
    const double *g = grid.data();
    for (coord_t i = 1; i <= n; i++)
        for (coord_t j = 1; j <= n; j++) {
            coord_t c = i * e + j;
            work[std::size_t((i - 1) * n + (j - 1))] =
                0.2 * ((((g[c] + g[c - e]) + g[c + 1]) + g[c - 1]) +
                       g[c + e]);
        }
    for (coord_t i = 1; i <= n; i++)
        std::copy_n(&work[std::size_t((i - 1) * n)], n,
                    &grid[std::size_t(i * e + 1)]);
}

struct StencilWl
{
    static constexpr const char *kName = "stencil";
    static constexpr coord_t kN = 1024;
    static constexpr coord_t kE = kN + 2; ///< grid edge with halo
    static constexpr double kElems = double(kN * kN);
    /** Pass 1 reads five views and writes the work array; pass 2
     * copies it into the centre view. */
    static constexpr double kBytes = 8.0 * double(kN * kN) * 8.0;
    static constexpr std::size_t kTriadN = std::size_t(kE * kE);

    struct Twin
    {
        std::vector<double> grid, work;

        explicit Twin(const std::vector<double> &g)
            : grid(g), work(std::size_t(kN * kN))
        {}

        void step() { stencilStep(grid, work, kN); }
    };

    struct Inputs
    {
        std::vector<double> grid;
        std::vector<double> after1; ///< grid after one step

        explicit Inputs(std::uint64_t seed)
            : grid(uniformVec(std::size_t(kE * kE), seed, 0.0, 1.0))
        {
            Twin t(grid);
            t.step();
            after1 = std::move(t.grid);
        }
    };

    struct Sut : Steppable, Bringup
    {
        std::unique_ptr<apps::Stencil> app;

        Sut(const Inputs &in, int workers) : Bringup(workers)
        {
            app = std::make_unique<apps::Stencil>(*nc, kN);
            rt->writeStoreF64(app->grid().store(), in.grid);
        }

        void
        step(SpanLog &log) override
        {
            {
                Span s(log, "cunumeric.submit", rt.get());
                app->step();
            }
            Span s(log, "core.flush", rt.get());
            rt->flushWindow();
        }

        std::vector<double>
        grid()
        {
            return rt->readStoreF64(app->grid().store());
        }
    };

    static Twin makeTwin(const Inputs &in) { return Twin(in.grid); }
    static bool firstOk(Sut &s, const Inputs &in)
    {
        return s.grid() == in.after1;
    }
    static bool agree(Sut &s, Twin &t) { return s.grid() == t.grid; }
    static void resync(Sut &s, Twin &t) { t.grid = s.grid(); }
};

struct BlackScholesWl
{
    static constexpr const char *kName = "black_scholes";
    static constexpr coord_t kPerPoint = coord_t(1) << 18;
    static constexpr coord_t kN = kPerPoint * 4;
    static constexpr double kElems = double(kN);
    /** Reads spot, strike, expiry; writes call and put. */
    static constexpr double kBytes = 5.0 * double(kN) * 8.0;
    static constexpr std::size_t kTriadN = std::size_t(kN);

    struct Inputs
    {
        std::vector<double> s, k, t, call, put;

        explicit Inputs(std::uint64_t seed)
            : s(uniformVec(std::size_t(kN), seed * 3 + 1, 10.0, 100.0)),
              k(uniformVec(std::size_t(kN), seed * 3 + 2, 10.0, 100.0)),
              t(uniformVec(std::size_t(kN), seed * 3 + 3, 0.25, 2.0))
        {
            apps::BlackScholes::reference(
                s, k, t, apps::BlackScholes::RATE,
                apps::BlackScholes::VOLATILITY, call, put);
        }
    };

    struct Twin
    {
        const Inputs &in;
        std::vector<double> call, put;

        void
        step()
        {
            apps::BlackScholes::reference(
                in.s, in.k, in.t, apps::BlackScholes::RATE,
                apps::BlackScholes::VOLATILITY, call, put);
        }
    };

    struct Sut : Steppable, Bringup
    {
        std::unique_ptr<apps::BlackScholes> app;

        Sut(const Inputs &in, int workers) : Bringup(workers)
        {
            StoreId first = nextStoreId(*rt);
            app = std::make_unique<apps::BlackScholes>(*nc, kPerPoint);
            seedBlackScholes(*rt, first, in.s, in.k, in.t);
        }

        void
        step(SpanLog &log) override
        {
            {
                Span s(log, "cunumeric.submit", rt.get());
                app->step();
            }
            Span s(log, "core.flush", rt.get());
            rt->flushWindow();
        }

        bool
        matches(const std::vector<double> &call,
                const std::vector<double> &put)
        {
            return near(nc->toHost(app->call()), call, kTol) &&
                   near(nc->toHost(app->put()), put, kTol);
        }
    };

    static Twin makeTwin(const Inputs &in) { return Twin{in, {}, {}}; }
    static bool firstOk(Sut &s, const Inputs &in)
    {
        return s.matches(in.call, in.put);
    }
    static bool agree(Sut &s, Twin &t) { return s.matches(t.call, t.put); }
    static void resync(Sut &, Twin &) {}
};

/** Computed bytes of one CG solve: per iteration one SpMV (values,
 * 32-bit columns, row pointers, gathered input, output) and twelve
 * vector passes; four more passes set the solve up. */
double
cgBytes(coord_t rows, coord_t nnz, int iters)
{
    double r = double(rows) * 8.0;
    double spmv = double(nnz) * 12.0 + 3.0 * r;
    return iters * (spmv + 12.0 * r) + 4.0 * r;
}

/** Nonzeros of the 5-point operator on an e-by-e grid. */
coord_t
poissonNnz(coord_t e)
{
    return 5 * e * e - 4 * e;
}

struct CgWl
{
    static constexpr const char *kName = "cg";
    static constexpr coord_t kEdge = 512;
    static constexpr coord_t kRows = kEdge * kEdge;
    static constexpr int kIters = 4;
    static constexpr double kElems = double(kRows) * kIters;
    static inline const double kBytes =
        cgBytes(kRows, poissonNnz(kEdge), kIters);
    static constexpr std::size_t kTriadN = std::size_t(kRows);

    /** petsc-mini's KspCg in Real mode on the same matrix. */
    struct Twin
    {
        pmini::PetscRuntime prt{machine(), pmini::Mode::Real};
        pmini::Mat a;
        pmini::Vec b, x;
        double rs = 0.0;

        explicit Twin(const std::vector<double> &rhs)
            : a(pmini::Mat::poisson2d(prt, kEdge, kEdge)),
              b(prt, kRows), x(prt, kRows)
        {
            b.data() = rhs;
        }

        void step() { rs = pmini::KspCg(prt, a, b, x, kIters); }
    };

    struct Inputs
    {
        std::vector<double> b;
        double rs = 0.0;

        explicit Inputs(std::uint64_t seed)
            : b(uniformVec(std::size_t(kRows), seed, 0.0, 1.0))
        {
            Twin t(b);
            t.step();
            rs = t.rs;
        }
    };

    struct Sut : Steppable, Bringup
    {
        std::unique_ptr<sp::SparseContext> sc;
        std::unique_ptr<solvers::SolverContext> sol;
        sp::CsrMatrix a;
        num::NDArray b;
        double rs = 0.0;

        Sut(const Inputs &in, int workers) : Bringup(workers)
        {
            sc = std::make_unique<sp::SparseContext>(*nc);
            sol = std::make_unique<solvers::SolverContext>(*nc, *sc);
            a = sc->poisson2d(kEdge, kEdge);
            b = nc->zeros(kRows);
            rt->writeStoreF64(b.store(), in.b);
        }

        void
        step(SpanLog &log) override
        {
            Span s(log, "solvers.cg", rt.get());
            sol->cg(a, b, kIters, &rs);
        }
    };

    static Twin makeTwin(const Inputs &in) { return Twin(in.b); }
    static bool firstOk(Sut &s, const Inputs &in)
    {
        return near(s.rs, in.rs, kTol);
    }
    static bool agree(Sut &s, Twin &t) { return near(s.rs, t.rs, kTol); }
    static void resync(Sut &, Twin &) {}
};

} // namespace

// ---- Reporting --------------------------------------------------------------

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string traceDir = ".";
    std::string gitSha = "none";
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run reports: attempted/failed items, end-to-end
 * metrics (untraced runs), per-layer metrics (traced runs) and the
 * host context block (every run, printed but not in the JSON). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> e2e, layer, context;
    std::vector<std::string> notes;

    void add(std::vector<Metric> &to, const std::string &n, double v,
             const std::string &u)
    {
        to.push_back({n, std::isfinite(v) ? v : 0.0, u});
    }
};

/** Host context block shared by every workload. */
void
hostContext(Report &rep, const Args &args, int nproc, double triad_gbs,
            std::size_t triad_n)
{
    rep.notes.push_back("host.cpu " + cpuModel());
    rep.notes.push_back(std::string("host.compiler ") + __VERSION__);
    rep.notes.push_back(std::string("host.build_type ") +
                        PERFBENCH_BUILD_TYPE);
    rep.notes.push_back("host.git_sha " + args.gitSha);
    std::string knobs;
    for (char **e = environ; *e; e++)
        if (std::strncmp(*e, "DIFFUSE_", 8) == 0)
            knobs += std::string(knobs.empty() ? "" : " ") + *e;
    rep.notes.push_back("host.knobs " + (knobs.empty() ? "(none set)"
                                                       : knobs));
    rep.add(rep.context, "host.nproc", nproc, "count");
    rep.add(rep.context, "host.triad_gbs", triad_gbs, "GB/s");
    rep.add(rep.context, "host.triad_elems", double(triad_n), "count");
}

/** Counter totals over one measured interval (deltas of the public
 * stats structs), normalized per step by the caller. */
struct Counters
{
    double temps = 0.0, bytesMat = 0.0, pointTasks = 0.0;
    double hazardDeps = 0.0, sharded = 0.0, steals = 0.0;
    /** Flushes that carried a window (the benchmark's own output
     * checks flush empty windows; runSingle subtracts those). */
    double replayed = 0.0, flushes = 0.0;

    static Counters
    of(DiffuseRuntime &rt)
    {
        Counters c;
        const FusionStats &f = rt.fusionStats();
        const rt::RuntimeStats &r = rt.runtimeStats();
        const rt::StreamStats &s = rt.low().streamStats();
        c.temps = double(f.tempsEliminated);
        c.bytesMat = r.bytesMaterialized;
        c.pointTasks = double(r.pointTasks);
        c.hazardDeps = double(s.rawDeps + s.warDeps + s.wawDeps);
        c.sharded = double(r.tasksSharded);
        c.steals = double(rt.context()->pool()->steals());
        c.replayed = double(f.traceEpochsReplayed);
        c.flushes = double(f.flushes);
        return c;
    }

    Counters &
    operator+=(const Counters &o)
    {
        temps += o.temps;
        bytesMat += o.bytesMat;
        pointTasks += o.pointTasks;
        hazardDeps += o.hazardDeps;
        sharded += o.sharded;
        steals += o.steals;
        replayed += o.replayed;
        flushes += o.flushes;
        return *this;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d = *this;
        d.temps -= o.temps;
        d.bytesMat -= o.bytesMat;
        d.pointTasks -= o.pointTasks;
        d.hazardDeps -= o.hazardDeps;
        d.sharded -= o.sharded;
        d.steals -= o.steals;
        d.replayed -= o.replayed;
        d.flushes -= o.flushes;
        return d;
    }
};

/** Cumulative counters of one session, snapshotted at the end of
 * each root span for the trace file. */
std::map<std::string, double>
sessionCounters(DiffuseRuntime &rt)
{
    Counters c = Counters::of(rt);
    return {{"core_submit_s", submitSeconds(&rt)},
            {"trace_replayed", c.replayed},
            {"temps_eliminated", c.temps},
            {"point_tasks", c.pointTasks},
            {"tasks_sharded", c.sharded},
            {"bytes_materialized", c.bytesMat},
            {"pool_steals", c.steals}};
}

/** Interleaved Diffuse/twin samples of one phase. */
struct Pairs
{
    std::vector<double> dWall, tWall, dCpu, tCpu, ratio;

    void
    add(double dw, double tw, double dc, double tc)
    {
        dWall.push_back(dw);
        tWall.push_back(tw);
        dCpu.push_back(dc);
        tCpu.push_back(tc);
        ratio.push_back(dw / tw);
    }

    void
    append(const Pairs &o)
    {
        for (std::size_t i = 0; i < o.ratio.size(); i++)
            add(o.dWall[i], o.tWall[i], o.dCpu[i], o.tCpu[i]);
    }
};

/**
 * The six end-to-end metrics from a phase's pairs plus setup. A metric
 * with no valid samples (every bring-up or step failed) is left out
 * with a note rather than read as 0, which would look like a gain.
 */
void
endToEnd(Report &rep, const Pairs &p, const std::vector<double> &setups,
         double elems_per_step)
{
    double tail_q = 0.5;
    double tail = blockTail(p.ratio, &tail_q);
    double twin_p50 = median(p.tWall);
    auto gated = [&](const char *name, bool valid, double v,
                     const char *unit) {
        if (valid)
            rep.add(rep.e2e, name, v, unit);
        else
            rep.notes.push_back(std::string(name) +
                                " left out: no valid samples");
    };
    const bool pairs = !p.ratio.empty();
    gated("setup_s", !setups.empty(), median(setups), "s");
    gated("vs_native_x", pairs, median(p.ratio), "x");
    gated("tail_vs_native_x", pairs, tail, "x");
    gated("cpu_vs_native_x", pairs && sum(p.tCpu) > 0.0,
          ratio(sum(p.dCpu), sum(p.tCpu)), "x");
    rep.add(rep.e2e, "peak_rss_mb", peakRssMb(), "MB");
    double failed_frac = ratio(double(rep.failed), double(rep.attempted));
    gated("pass_frac", rep.attempted > 0, 1.0 - failed_frac, "frac");
    rep.add(rep.context, "failed_frac", failed_frac, "frac");
    rep.add(rep.context, "step_p50_s", median(p.dWall), "s");
    rep.add(rep.context, "twin_p50_s", twin_p50, "s");
    rep.add(rep.context, "elems_per_s",
            ratio(elems_per_step, median(p.dWall)), "1/s");
    rep.add(rep.context, "pairs", double(p.ratio.size()), "count");
    rep.add(rep.context, "setup_samples", double(setups.size()), "count");
    rep.add(rep.context, "tail_percentile", tail_q * 100.0, "%");
    if (pairs && tail_q < 0.95)
        rep.notes.push_back(
            "tail_vs_native_x is p" + std::to_string(int(tail_q * 100.0)) +
            ": " + std::to_string(p.ratio.size()) +
            " pairs are too few for a higher percentile with 10 beyond it");
    rep.add(rep.context, "tail_blocks",
            double(std::max<std::size_t>(1, p.dWall.size() / kTailBlock)),
            "count");
}

/** Per-layer metrics shared by every workload: spans, counters,
 * compile and cache state, and the traced/untraced difference. */
void
perLayer(Report &rep, const LayerTimes &lt, const Counters &c,
         double bytes_per_step, double triad_gbs, double cpu_per_wall,
         double untraced_x, double traced_x)
{
    double steps = std::max(1.0, lt.roots);
    double exec = lt.exec / steps;
    double achieved = ratio(bytes_per_step, exec) / 1e9;
    rep.add(rep.layer, "cunumeric.submit_s", lt.cunumeric / steps, "s");
    rep.add(rep.layer, "apps.construct_s", lt.construct / steps, "s");
    rep.add(rep.layer, "core.submit_s", lt.coreSubmit / steps, "s");
    rep.add(rep.layer, "core.plan_s", lt.corePlan / steps, "s");
    rep.add(rep.layer, "core.replay_frac", ratio(c.replayed, c.flushes),
            "frac");
    rep.add(rep.layer, "core.temps_eliminated", c.temps / steps, "count");
    rep.add(rep.layer, "runtime.bytes_materialized", c.bytesMat / steps,
            "B");
    rep.add(rep.layer, "runtime.point_tasks", c.pointTasks / steps,
            "count");
    rep.add(rep.layer, "runtime.hazard_deps", c.hazardDeps / steps,
            "count");
    rep.add(rep.layer, "runtime.tasks_sharded", c.sharded / steps,
            "count");
    rep.add(rep.layer, "kernel.exec_s", exec, "s");
    rep.add(rep.layer, "kernel.achieved_gbs", achieved, "GB/s");
    rep.add(rep.layer, "kernel.roofline_frac", ratio(achieved, triad_gbs),
            "frac");
    rep.add(rep.layer, "kernel.pool_steals", c.steals / steps, "count");
    rep.add(rep.layer, "kernel.pool_cpu_per_wall", cpu_per_wall, "x");
    rep.add(rep.layer, "trace.overhead_frac",
            ratio(traced_x, untraced_x) - 1.0, "frac");
}

/** Whole-life cache and compile counters of one context. */
void
cacheLayer(Report &rep, SharedContext &ctx)
{
    const Memoizer::Stats &m = ctx.memo().stats();
    double hits = double(m.hits.load()), misses = double(m.misses.load());
    kir::CompilerStats cs = ctx.compiler().stats();
    kir::JitBackend::Stats js = ctx.jit().stats();
    rep.add(rep.layer, "core.memo_hit_frac", ratio(hits, hits + misses),
            "frac");
    rep.add(rep.layer, "core.memo_lookups", hits + misses, "count");
    rep.add(rep.layer, "core.memo_entries", double(m.entries.load()),
            "count");
    rep.add(rep.layer, "kernel.compile_s", cs.measuredSeconds, "s");
    rep.add(rep.layer, "kernel.kernels_compiled",
            double(cs.kernelsCompiled) + double(js.kernelsCompiled),
            "count");
}

/** Interleaved worker sweep: one runtime per worker count, stepped in
 * rotating blocks so host drift hits every count alike. */
void
workerSweep(Report &rep,
            const std::function<std::unique_ptr<Steppable>(int)> &make,
            double seconds)
{
    constexpr int kMax = 4;
    std::vector<std::unique_ptr<Steppable>> suts;
    std::vector<std::vector<double>> per(kMax);
    SpanLog off;
    for (int w = 1; w <= kMax; w++) {
        suts.push_back(make(w));
        timeLoop([&] { suts.back()->step(off); }, 0.15);
    }
    double end = wallNow() + seconds;
    for (int round = 0; wallNow() < end; round++)
        for (int j = 0; j < kMax; j++) {
            int w = (round + j) % kMax;
            auto t = timeLoop([&] { suts[std::size_t(w)]->step(off); },
                              0.02);
            per[std::size_t(w)].push_back(median(t));
        }
    double w1 = median(per[0]);
    for (int w = 1; w <= kMax; w++)
        rep.add(rep.layer, "kernel.pool_speedup_w" + std::to_string(w),
                ratio(w1, median(per[std::size_t(w - 1)])), "x");
}

} // namespace

// ---- Single-client runner ---------------------------------------------------

namespace {

/** Bring-ups timed for setup_s (the median is reported). */
constexpr int kSetups = 11;
/** Seconds between output checks during a phase. */
constexpr double kCheckEvery = 0.25;
/** Time-based warm-up before the measured phases. */
constexpr double kWarmupSeconds = 2.0;
/** Seconds of the interleaved worker sweep (traced runs). */
constexpr double kSweepSeconds = 2.0;

template <class W>
void
runSingle(const Args &args, Report &rep, std::vector<SpanLog> &logs)
{
    using Sut = typename W::Sut;
    const int nproc = hostProcs();
    const typename W::Inputs in(args.seed);

    spinWarmup(nproc, 0.7);
    Triad triad(W::kTriadN, nproc);
    double triad_gbs = triad.gbs(0.3);
    hostContext(rep, args, nproc, triad_gbs, W::kTriadN);

    // The twin alone, before any runtime exists (host.ref_drift base).
    double twin_before = 0.0;
    {
        auto twin = W::makeTwin(in);
        twin_before = median(timeLoop([&] { twin.step(); }, 0.5));
    }

    // setup_s: a fresh SharedContext to the first checked result.
    SpanLog off;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; k++) {
        rep.attempted++;
        double t0 = wallNow();
        try {
            Sut s(in, nproc);
            s.step(off);
            if (W::firstOk(s, in))
                setups.push_back(wallNow() - t0);
            else
                rep.failed++;
        } catch (const std::exception &e) {
            rep.failed++;
            rep.notes.push_back(std::string("setup failed: ") + e.what());
        }
    }

    auto sut = std::make_unique<Sut>(in, nproc);
    auto twin = W::makeTwin(in);
    SpanLog &log = logs.emplace_back();
    log.tid = 1;
    double check_flushes = 0.0;
    std::uint64_t unchecked = 0;
    Pairs pending;

    // Outputs are checked every kCheckEvery seconds and at the end of a
    // phase; every step since a failed check counts as failed, and only
    // steps a passed check covers join `out`.
    auto check = [&](Pairs *out) {
        double f0 = double(sut->rt->fusionStats().flushes);
        bool ok = false;
        try {
            ok = W::agree(*sut, twin);
        } catch (const std::exception &e) {
            rep.notes.push_back(std::string("check threw: ") + e.what());
        }
        if (!ok) {
            rep.failed += unchecked;
            W::resync(*sut, twin);
        } else if (out) {
            out->append(pending);
        }
        pending = Pairs();
        unchecked = 0;
        check_flushes += double(sut->rt->fusionStats().flushes) - f0;
    };

    // One phase of interleaved pairs, alternating which side runs first.
    auto phase = [&](double seconds, Pairs *out) {
        double end = wallNow() + seconds;
        double next_check = wallNow() + kCheckEvery;
        for (std::uint64_t i = 0; wallNow() < end; i++) {
            double dw = 0, dc = 0, tw = 0, tc = 0;
            bool threw = false;
            auto diffuse = [&] {
                double c0 = processCpu(), w0 = wallNow();
                try {
                    Span root(log, "step", sut->rt.get());
                    sut->step(log);
                } catch (const std::exception &e) {
                    threw = true;
                    rep.notes.push_back(std::string("step threw: ") +
                                        e.what());
                }
                dw = wallNow() - w0;
                dc = processCpu() - c0;
            };
            auto native = [&] {
                double c0 = processCpu(), w0 = wallNow();
                twin.step();
                tw = wallNow() - w0;
                tc = processCpu() - c0;
            };
            if (i % 2 == 0) {
                diffuse();
                native();
            } else {
                native();
                diffuse();
            }
            rep.attempted++;
            if (log.on)
                log.counters.push_back({wallNow(), sessionCounters(*sut->rt)});
            if (threw) {
                rep.failed++;
                if (sut->rt->failed())
                    sut->rt->resetAfterError();
                W::resync(*sut, twin);
                continue;
            }
            unchecked++;
            pending.add(dw, tw, dc, tc);
            if (wallNow() >= next_check) {
                check(out);
                next_check = wallNow() + kCheckEvery;
            }
        }
        if (unchecked)
            check(out);
    };

    phase(kWarmupSeconds, nullptr);
    const double seconds = double(args.seconds);
    Pairs untraced, traced;
    if (!args.trace) {
        phase(seconds, &untraced);
    } else {
        phase(seconds / 2, &untraced);
        Counters before = Counters::of(*sut->rt);
        check_flushes = 0.0;
        log.on = true;
        phase(seconds / 2, &traced);
        log.on = false;
        Counters delta = Counters::of(*sut->rt) - before;
        delta.flushes -= check_flushes;
        LayerTimes lt;
        addSelfTimes(log, lt);
        perLayer(rep, lt, delta, W::kBytes, triad_gbs,
                 ratio(sum(traced.dCpu), sum(traced.dWall)),
                 median(untraced.ratio), median(traced.ratio));
        cacheLayer(rep, *sut->rt->context());
        rep.add(rep.layer, "kernel.pool_wake_ratio",
                wakeRatio([&] { sut->step(off); }), "x");
    }
    std::vector<double> twin_all = untraced.tWall;
    twin_all.insert(twin_all.end(), traced.tWall.begin(),
                    traced.tWall.end());
    double drift = ratio(median(twin_all), twin_before);
    rep.add(rep.context, "host.ref_drift", drift, "x");
    endToEnd(rep, untraced, setups, W::kElems);
    sut.reset();

    if (args.trace) {
        rep.add(rep.layer, "host.ref_drift", drift, "x");
        workerSweep(
            rep,
            [&](int w) -> std::unique_ptr<Steppable> {
                return std::make_unique<Sut>(in, w);
            },
            kSweepSeconds);
        rep.add(rep.layer, "host.wake_ratio",
                wakeRatio([&] { triad.pass(); }), "x");
    }
}

} // namespace

// ---- Serving workload ---------------------------------------------------------

namespace {

enum class Kind { Stencil, BlackScholes, Cg };

/** One client request: one app step at `edge`, then a checksum read.
 * `seed` makes its input data. */
struct Request
{
    Kind kind = Kind::Stencil;
    coord_t edge = 64;
    std::uint64_t seed = 0;
};

using SessionPlan = std::vector<Request>;
using ClientPlan = std::vector<SessionPlan>;

/*
 * The serving schedule has the fewest parameters the workload needs.
 * No measured traffic backs them: the request kind is uniform over the
 * three; the edge is uniform over every integer in [kMinEdge,
 * kMaxEdge]; session lifetimes have a long tail with no tuning knob
 * (Zipf's law, see lifetimes()); each client sends a fixed count of
 * requests per benchmark second.
 */

/** Requests per client per benchmark second: a count, not a time
 * limit, so the same seed replays the same request sequence. Set so
 * that a pass lasts about `--seconds` on a 4-vCPU x86 host. */
constexpr int kRequestsPerClientSecond = 200;
constexpr coord_t kMinEdge = 64;
constexpr coord_t kMaxEdge = 256;

/**
 * Session lifetimes of one client, summing to `per_client`: for the
 * smallest K that fills the client's requests, session j of K serves
 * ceil(K / (j + 0.5)) requests (the last one cut to fit) -- the
 * Pareto(alpha 1, minimum 1) quantiles at (j + 0.5) / K. A few
 * sessions live for hundreds of requests next to many of one or two.
 * Every client and every seed gets the same set; the seed orders it.
 */
std::vector<int>
lifetimes(int per_client)
{
    for (int k = 1;; k++) {
        std::vector<int> out;
        int total = 0;
        for (int j = 0; j < k && total < per_client; j++) {
            double life = std::ceil(double(k) / (double(j) + 0.5));
            int n = int(std::min(double(per_client - total), life));
            out.push_back(n);
            total += n;
        }
        if (total >= per_client)
            return out;
    }
}

std::vector<ClientPlan>
makeSchedule(std::uint64_t seed, int clients, int per_client)
{
    std::vector<ClientPlan> plans{std::size_t(clients)};
    for (int c = 0; c < clients; c++) {
        Rng rng(seed * 1000003u + std::uint64_t(c));
        std::vector<int> lives = lifetimes(per_client);
        for (std::size_t i = lives.size(); i > 1; i--)
            std::swap(lives[i - 1], lives[rng.below(i)]);
        for (int n : lives) {
            SessionPlan s;
            for (int i = 0; i < n; i++) {
                Request r;
                r.kind = Kind(rng.below(3));
                r.edge = kMinEdge + coord_t(rng.below(std::uint64_t(
                                        kMaxEdge - kMinEdge + 1)));
                r.seed = rng.next();
                s.push_back(r);
            }
            plans[std::size_t(c)].push_back(std::move(s));
        }
    }
    return plans;
}

/** Elements one request computes: apps::BlackScholes takes options per
 * point, so its count rounds edge^2 down to a multiple of the points. */
coord_t
requestElems(const Request &r)
{
    coord_t n = r.edge * r.edge;
    if (r.kind == Kind::BlackScholes)
        return n / kPoints * kPoints;
    return n;
}

/** Host input data of one request. */
struct ReqData
{
    std::vector<double> a, b, c;
};

ReqData
makeData(const Request &r)
{
    ReqData d;
    std::size_t n = std::size_t(requestElems(r));
    switch (r.kind) {
    case Kind::Stencil:
        d.a = uniformVec(std::size_t((r.edge + 2) * (r.edge + 2)), r.seed,
                         0.0, 1.0);
        break;
    case Kind::BlackScholes:
        d.a = uniformVec(n, r.seed, 10.0, 100.0);
        d.b = uniformVec(n, r.seed + 1, 10.0, 100.0);
        d.c = uniformVec(n, r.seed + 2, 0.25, 2.0);
        break;
    case Kind::Cg:
        d.a = uniformVec(n, r.seed, 0.0, 1.0);
        break;
    }
    return d;
}

double
requestBytes(const Request &r)
{
    double n = double(requestElems(r));
    switch (r.kind) {
    case Kind::Stencil:
        return 64.0 * n;
    case Kind::BlackScholes:
        return 40.0 * n;
    case Kind::Cg:
        break;
    }
    return cgBytes(r.edge * r.edge, poissonNnz(r.edge), 4);
}

using Reply = std::array<double, 2>;

/** The hand-written twin of one request. */
Reply
serveTwin(const Request &r, const ReqData &d)
{
    switch (r.kind) {
    case Kind::Stencil: {
        std::vector<double> grid = d.a;
        std::vector<double> work(std::size_t(r.edge * r.edge));
        stencilStep(grid, work, r.edge);
        return {sum(grid), 0.0};
    }
    case Kind::BlackScholes: {
        std::vector<double> call, put;
        apps::BlackScholes::reference(d.a, d.b, d.c,
                                      apps::BlackScholes::RATE,
                                      apps::BlackScholes::VOLATILITY, call,
                                      put);
        return {sum(call), sum(put)};
    }
    case Kind::Cg:
        break;
    }
    pmini::PetscRuntime prt(machine(), pmini::Mode::Real);
    pmini::Mat a = pmini::Mat::poisson2d(prt, r.edge, r.edge);
    pmini::Vec b(prt, r.edge * r.edge), x(prt, r.edge * r.edge);
    b.data() = d.a;
    return {pmini::KspCg(prt, a, b, x, 4), 0.0};
}

/** One client session and its libraries. */
struct ServingSession
{
    std::unique_ptr<DiffuseRuntime> rt;
    std::unique_ptr<num::Context> nc;
    std::unique_ptr<sp::SparseContext> sc;
    std::unique_ptr<solvers::SolverContext> sol;

    ServingSession(SharedContext &ctx, int workers)
        : rt(ctx.createSession(sessionOptions(workers))),
          nc(std::make_unique<num::Context>(*rt)),
          sc(std::make_unique<sp::SparseContext>(*nc)),
          sol(std::make_unique<solvers::SolverContext>(*nc, *sc))
    {}

    Reply
    serve(const Request &r, const ReqData &d, SpanLog &log)
    {
        DiffuseRuntime *p = rt.get();
        auto step = [&](auto &app) {
            {
                Span span(log, "cunumeric.submit", p);
                app.step();
            }
            Span span(log, "core.flush", p);
            rt->flushWindow();
        };
        switch (r.kind) {
        case Kind::Stencil: {
            std::unique_ptr<apps::Stencil> app;
            {
                Span span(log, "app.construct", p);
                app = std::make_unique<apps::Stencil>(*nc, r.edge);
                rt->writeStoreF64(app->grid().store(), d.a);
            }
            step(*app);
            Span span(log, "runtime.read", p);
            return {nc->value(nc->sum(app->grid())), 0.0};
        }
        case Kind::BlackScholes: {
            std::unique_ptr<apps::BlackScholes> app;
            {
                Span span(log, "app.construct", p);
                StoreId first = nextStoreId(*rt);
                app = std::make_unique<apps::BlackScholes>(
                    *nc, requestElems(r) / kPoints);
                seedBlackScholes(*rt, first, d.a, d.b, d.c);
            }
            step(*app);
            Span span(log, "runtime.read", p);
            double call = nc->value(nc->sum(app->call()));
            return {call, nc->value(nc->sum(app->put()))};
        }
        case Kind::Cg:
            break;
        }
        sp::CsrMatrix a;
        num::NDArray b;
        {
            Span span(log, "app.construct", p);
            a = sc->poisson2d(r.edge, r.edge);
            b = nc->zeros(r.edge * r.edge);
            rt->writeStoreF64(b.store(), d.a);
        }
        double rs = 0.0;
        {
            Span span(log, "solvers.cg", p);
            sol->cg(a, b, 4, &rs);
        }
        return {rs, 0.0};
    }
};

bool
sameReply(const Reply &got, const Reply &want)
{
    return near(got[0], want[0], kTol) && near(got[1], want[1], kTol);
}

struct ClientResult
{
    Pairs pairs;
    std::uint64_t attempted = 0, failed = 0;
    Counters counters;
    double elems = 0.0, bytes = 0.0;
    std::vector<std::string> notes;
};

/** One closed-loop client: each request waits for the previous one;
 * each is timed on Diffuse and on its twin, in alternating order, on
 * this thread's CPU clock. */
void
runClient(SharedContext &ctx, const ClientPlan &plan, SpanLog &log,
          ClientResult &out)
{
    std::uint64_t index = 0;
    for (const SessionPlan &session : plan) {
        std::unique_ptr<ServingSession> s;
        try {
            s = std::make_unique<ServingSession>(ctx, 1);
        } catch (const std::exception &e) {
            out.attempted += session.size();
            out.failed += session.size();
            out.notes.push_back(std::string("session threw: ") + e.what());
            continue;
        }
        Counters before = Counters::of(*s->rt);
        for (const Request &r : session) {
            ReqData d = makeData(r);
            Reply got{}, want{};
            double dw = 0, dc = 0, tw = 0, tc = 0;
            bool threw = false;
            auto diffuse = [&] {
                double c0 = threadCpu(), w0 = wallNow();
                try {
                    Span root(log, "request", s->rt.get());
                    got = s->serve(r, d, log);
                } catch (const std::exception &e) {
                    threw = true;
                    out.notes.push_back(std::string("request threw: ") +
                                        e.what());
                }
                dw = wallNow() - w0;
                dc = threadCpu() - c0;
            };
            auto native = [&] {
                double c0 = threadCpu(), w0 = wallNow();
                want = serveTwin(r, d);
                tw = wallNow() - w0;
                tc = threadCpu() - c0;
            };
            if (index++ % 2 == 0) {
                diffuse();
                native();
            } else {
                native();
                diffuse();
            }
            out.attempted++;
            if (log.on)
                log.counters.push_back({wallNow(), sessionCounters(*s->rt)});
            if (threw || !sameReply(got, want)) {
                out.failed++;
                if (s->rt->failed())
                    s->rt->resetAfterError();
                continue;
            }
            out.pairs.add(dw, tw, dc, tc);
            out.elems += double(requestElems(r));
            out.bytes += requestBytes(r);
        }
        out.counters += Counters::of(*s->rt) - before;
    }
}

/** A session serving the fixed body (one request of each kind at the
 * largest edge): the worker sweep's and wake probe's unit of work. */
struct ServingBody : Steppable
{
    std::shared_ptr<SharedContext> ctx;
    std::unique_ptr<ServingSession> session;
    const std::vector<Request> &reqs;
    const std::vector<ReqData> &data;

    ServingBody(const std::vector<Request> &r, const std::vector<ReqData> &d,
                int workers)
        : ctx(SharedContext::create(machine())),
          session(std::make_unique<ServingSession>(*ctx, workers)),
          reqs(r), data(d)
    {}

    void
    step(SpanLog &log) override
    {
        for (std::size_t i = 0; i < reqs.size(); i++)
            session->serve(reqs[i], data[i], log);
    }
};

struct PassResult
{
    std::vector<ClientResult> clients;
    std::vector<SpanLog> logs;
    std::shared_ptr<SharedContext> ctx;
    double wall = 0.0;
};

/** One closed-loop pass of every client over a fresh context. */
PassResult
servingPass(const std::vector<ClientPlan> &plans, bool traced, int nproc)
{
    PassResult p;
    p.clients.resize(plans.size());
    p.logs.resize(plans.size());
    p.ctx = SharedContext::create(machine());
    spinWarmup(nproc, 0.5);
    std::vector<std::thread> threads;
    double t0 = wallNow();
    for (std::size_t c = 0; c < plans.size(); c++) {
        p.logs[c].tid = int(c) + 1;
        p.logs[c].on = traced;
        threads.emplace_back([&, c] {
            runClient(*p.ctx, plans[c], p.logs[c], p.clients[c]);
        });
    }
    for (auto &t : threads)
        t.join();
    p.wall = wallNow() - t0;
    return p;
}

Pairs
mergedPairs(const PassResult &p)
{
    Pairs all;
    for (const ClientResult &c : p.clients)
        all.append(c.pairs);
    return all;
}

void
tally(Report &rep, const PassResult &p)
{
    for (const ClientResult &c : p.clients) {
        rep.attempted += c.attempted;
        rep.failed += c.failed;
        rep.notes.insert(rep.notes.end(), c.notes.begin(), c.notes.end());
    }
}

void
runServing(const Args &args, Report &rep, std::vector<SpanLog> &logs)
{
    const int nproc = hostProcs();
    const int clients = nproc;
    const int per_client = kRequestsPerClientSecond * args.seconds;

    const std::vector<Request> body = {
        {Kind::Stencil, kMaxEdge, args.seed * 7 + 1},
        {Kind::BlackScholes, kMaxEdge, args.seed * 7 + 2},
        {Kind::Cg, kMaxEdge, args.seed * 7 + 3}};
    std::vector<ReqData> body_data;
    for (const Request &r : body)
        body_data.push_back(makeData(r));
    auto body_twin = [&] {
        for (std::size_t i = 0; i < body.size(); i++)
            serveTwin(body[i], body_data[i]);
    };

    spinWarmup(nproc, 0.7);
    const std::size_t triad_n = std::size_t(kMaxEdge * kMaxEdge);
    Triad triad(triad_n, nproc);
    double triad_gbs = triad.gbs(0.3);
    hostContext(rep, args, nproc, triad_gbs, triad_n);
    double twin_before = median(timeLoop(body_twin, 0.5));

    // setup_s: a fresh context with nproc sessions, each serving the
    // fixed body (one request of each kind) to checked replies. The
    // body's shapes do not depend on the seed, so neither does the
    // work set-up does.
    const std::vector<ClientPlan> plans =
        makeSchedule(args.seed, clients, per_client);
    std::vector<Reply> body_want;
    for (std::size_t i = 0; i < body.size(); i++)
        body_want.push_back(serveTwin(body[i], body_data[i]));
    std::vector<double> setups;
    for (int k = 0; k < kSetups; k++) {
        std::vector<int> ok(std::size_t(clients), 0);
        double t0 = wallNow();
        auto ctx = SharedContext::create(machine());
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; c++)
            threads.emplace_back([&, c] {
                try {
                    SpanLog off;
                    ServingSession s(*ctx, 1);
                    bool all = true;
                    for (std::size_t i = 0; i < body.size(); i++)
                        all = sameReply(s.serve(body[i], body_data[i], off),
                                        body_want[i]) &&
                              all;
                    ok[std::size_t(c)] = all;
                } catch (const std::exception &) {
                }
            });
        for (auto &t : threads)
            t.join();
        double t = wallNow() - t0;
        int good = int(std::count(ok.begin(), ok.end(), 1));
        rep.attempted += std::uint64_t(clients);
        rep.failed += std::uint64_t(clients - good);
        if (good == clients)
            setups.push_back(t);
    }

    PassResult untraced;
    double drift = 0.0;
    if (!args.trace) {
        untraced = servingPass(plans, false, nproc);
        drift = ratio(median(timeLoop(body_twin, 0.5)), twin_before);
    } else {
        // Half the requests untraced, the same half again traced.
        auto half = makeSchedule(args.seed, clients, per_client / 2);
        untraced = servingPass(half, false, nproc);
        drift = ratio(median(timeLoop(body_twin, 0.5)), twin_before);
        PassResult traced = servingPass(half, true, nproc);
        tally(rep, traced);
        LayerTimes lt;
        Counters total;
        double bytes = 0.0;
        for (std::size_t c = 0; c < traced.clients.size(); c++) {
            addSelfTimes(traced.logs[c], lt);
            total += traced.clients[c].counters;
            bytes += traced.clients[c].bytes;
        }
        Pairs tp = mergedPairs(traced);
        Pairs up = mergedPairs(untraced);
        perLayer(rep, lt, total, bytes / std::max(1.0, lt.roots),
                 triad_gbs, ratio(sum(tp.dCpu), sum(tp.dWall)),
                 median(up.ratio), median(tp.ratio));
        cacheLayer(rep, *traced.ctx);
        rep.add(rep.layer, "host.ref_drift", drift, "x");
        for (SpanLog &l : traced.logs)
            logs.push_back(std::move(l));
        {
            ServingBody b(body, body_data, nproc);
            SpanLog off;
            rep.add(rep.layer, "kernel.pool_wake_ratio",
                    wakeRatio([&] { b.step(off); }), "x");
        }
        workerSweep(
            rep,
            [&](int w) -> std::unique_ptr<Steppable> {
                return std::make_unique<ServingBody>(body, body_data, w);
            },
            kSweepSeconds);
        rep.add(rep.layer, "host.wake_ratio",
                wakeRatio([&] { triad.pass(); }), "x");
    }
    tally(rep, untraced);
    rep.add(rep.context, "host.ref_drift", drift, "x");
    Pairs up = mergedPairs(untraced);
    double elems = 0.0;
    for (const ClientResult &c : untraced.clients)
        elems += c.elems;
    endToEnd(rep, up, setups, ratio(elems, double(up.ratio.size())));
    rep.add(rep.context, "requests_per_s",
            ratio(double(up.ratio.size()), untraced.wall), "1/s");
    rep.add(rep.context, "serving_pass_s", untraced.wall, "s");
}

} // namespace

// ---- Entry point ---------------------------------------------------------------

namespace {

void
printMetrics(const char *section, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%s %-28s %.6g %s\n", section, m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload stencil|black_scholes|cg|"
                 "serving --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR] [--git-sha SHA]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = std::atoi(v.c_str());
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--trace-dir")
            args.traceDir = v;
        else if (k == "--git-sha")
            args.gitSha = v;
        else
            return usage();
    }
    if (args.seconds < 1 || argc % 2 == 0)
        return usage();

    Report rep;
    std::vector<SpanLog> logs;
    try {
        if (args.workload == "stencil")
            runSingle<StencilWl>(args, rep, logs);
        else if (args.workload == "black_scholes")
            runSingle<BlackScholesWl>(args, rep, logs);
        else if (args.workload == "cg")
            runSingle<CgWl>(args, rep, logs);
        else if (args.workload == "serving")
            runServing(args, rep, logs);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.seconds, int(args.trace));
    std::printf("note checks: stencil grid bitwise against its twin; "
                "Black-Scholes call/put, CG residual and serving checksums "
                "within %g*(1+|twin|)\n",
                kTol);
    for (const std::string &n : rep.notes)
        std::printf("note %s\n", n.c_str());
    printMetrics("context", rep.context);
    printMetrics("end_to_end", rep.e2e);
    printMetrics("per_layer", rep.layer);

    if (args.trace) {
        std::string path = args.traceDir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
        std::vector<const SpanLog *> ptrs;
        for (const SpanLog &l : logs)
            ptrs.push_back(&l);
        if (!writeChromeTrace(path, ptrs)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("note chrome trace written to %s\n", path.c_str());
    }

    const std::vector<Metric> &out = args.trace ? rep.layer : rep.e2e;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.failed == 0 ? "true" : "false",
                (unsigned long long)rep.attempted,
                (unsigned long long)rep.failed);
    for (std::size_t i = 0; i < out.size(); i++)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}

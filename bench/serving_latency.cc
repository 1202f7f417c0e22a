/**
 * @file
 * Open-loop serving latency: request latency percentiles across N
 * concurrent sessions on one SharedContext.
 *
 * Each session thread serves a fixed open-loop arrival schedule:
 * request r is *scheduled* at t0 + r * interarrival, independent of
 * when earlier requests finished, so a slow server accumulates
 * queueing delay instead of silently slowing the offered load (the
 * standard serving-benchmark pitfall of closed loops). A request is
 * one warm solver-flavored window — submit, flushWindow(), and every
 * eighth request a synchronizing scalar read-back — and its latency
 * is completion time minus *scheduled* arrival time.
 *
 * Reported series (BENCH_serving_latency.json): p50 and p99 across
 * every request of every session, for the draining flush
 * (pipeline:off) and cross-window pipelining (pipeline:on). The
 * percentile seconds ride in `median_s`; `min_s` is the fastest
 * request and `mean_s` the mean latency (also printed on its own
 * labelled line).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "harness.h"

#include "core/context.h"

namespace {

using namespace diffuse;
using bench::WallMetric;
using num::Context;
using num::NDArray;

using clock_t_ = std::chrono::steady_clock;

/** One warm serving request against session-persistent state. */
void
serveRequest(DiffuseRuntime &rt, Context &ctx, NDArray &x, NDArray &y,
             int r)
{
    NDArray t = ctx.axpy(x, 0.25, y);
    ctx.assign(x, t);
    NDArray alpha = ctx.dot(x, y);
    NDArray u = ctx.axpyS(y, alpha, x);
    ctx.assign(y, u);
    rt.flushWindow();
    if (r % 8 == 7)
        (void)ctx.value(ctx.sum(y)); // periodic synchronizing read
}

struct Percentiles
{
    double p50 = 0.0;
    double p99 = 0.0;
    double min = 0.0;
    double mean = 0.0;
    int count = 0;
};

Percentiles
percentilesOf(std::vector<double> lat)
{
    Percentiles p;
    if (lat.empty())
        return p;
    std::sort(lat.begin(), lat.end());
    auto at = [&](double q) {
        std::size_t i = std::size_t(q * double(lat.size() - 1) + 0.5);
        return lat[std::min(i, lat.size() - 1)];
    };
    p.p50 = at(0.50);
    p.p99 = at(0.99);
    p.min = lat.front();
    for (double v : lat)
        p.mean += v;
    p.mean /= double(lat.size());
    p.count = int(lat.size());
    return p;
}

/**
 * Run `sessions` concurrent session threads, each serving `reqs`
 * open-loop requests at the given inter-arrival time, and return the
 * pooled latency percentiles.
 */
Percentiles
runOpenLoop(int sessions, int reqs, double interarrival_s,
            int pipeline)
{
    auto shared = SharedContext::create(rt::MachineConfig::withGpus(4));
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.sharedCache = 1;
    o.pipeline = pipeline;

    std::vector<std::vector<double>> lat;
    lat.resize(std::size_t(sessions));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; s++) {
        threads.emplace_back([&, s] {
            auto session = shared->createSession(o);
            Context ctx(*session);
            const coord_t n = 1024;
            NDArray x = ctx.random(n, 0xC0FFEE ^ std::uint64_t(s),
                                   -1.0, 1.0);
            NDArray y = ctx.random(n, 0xBEEF ^ std::uint64_t(s), -1.0,
                                   1.0);
            // Warm the caches before the measured schedule starts.
            serveRequest(*session, ctx, x, y, 0);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();

            auto t0 = clock_t_::now();
            std::vector<double> &mine = lat[std::size_t(s)];
            mine.reserve(std::size_t(reqs));
            for (int r = 0; r < reqs; r++) {
                auto scheduled =
                    t0 + std::chrono::duration_cast<clock_t_::duration>(
                             std::chrono::duration<double>(
                                 double(r) * interarrival_s));
                std::this_thread::sleep_until(scheduled); // open loop
                serveRequest(*session, ctx, x, y, r);
                mine.push_back(std::chrono::duration<double>(
                                   clock_t_::now() - scheduled)
                                   .count());
            }
        });
    }
    while (ready.load() < sessions)
        std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();

    std::vector<double> all;
    for (const std::vector<double> &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    return percentilesOf(std::move(all));
}

} // namespace

int
main()
{
    const bool smoke = bench::smokeMode();
    const int sessions = smoke ? 2 : 4;
    const int reqs = smoke ? 16 : 96;
    const double interarrival = smoke ? 1e-3 : 2e-3;

    std::printf("open-loop serving latency: %d sessions x %d requests, "
                "%.1f ms inter-arrival\n",
                sessions, reqs, interarrival * 1e3);

    std::vector<WallMetric> metrics;
    bench::printWallHeader();
    for (int pipeline : {0, 1}) {
        Percentiles p =
            runOpenLoop(sessions, reqs, interarrival, pipeline);
        std::string mode =
            pipeline != 0 ? "pipeline:on" : "pipeline:off";
        WallMetric p50;
        p50.label = "latency:p50:" + mode;
        p50.reps = p.count;
        p50.medianSeconds = p.p50;
        p50.minSeconds = p.min;
        p50.meanSeconds = p.mean;
        WallMetric p99 = p50;
        p99.label = "latency:p99:" + mode;
        p99.medianSeconds = p.p99;
        bench::printWallRow(p50);
        bench::printWallRow(p99);
        std::printf("%-22s %12.6f\n", ("latency:mean:" + mode).c_str(),
                    p.mean);
        metrics.push_back(p50);
        metrics.push_back(p99);
    }
    bench::writeBenchJson("serving_latency", metrics);
    return 0;
}

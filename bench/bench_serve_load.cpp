// Serving load bench: drives amsnet::serve with closed- and open-loop
// clients across an offered-QPS sweep and >= 2 instance-pool sizes.
//
// Protocol, per instance count:
//
//   1. one *closed-loop* run (clients = 2 x instances) measures the
//      concurrency-limited capacity of the pool — its achieved QPS is
//      the calibration point for the open-loop sweep;
//   2. *open-loop* runs at 25/50/75/100% of that capacity submit on a
//      Poisson arrival schedule, exposing queueing delay as the offered
//      rate approaches saturation (the regime closed-loop clients never
//      reach).
//
// Each row of BENCH_serve.json records offered vs achieved QPS, server-
// side p50/p95/p99 latency, queue-wait percentiles, batch-fill statistics
// and the dispatched batch-size histogram. AMSNET_BENCH_QUICK=1 shrinks
// the request counts for CI smoke runs (the sweep structure — >= 4 QPS
// points x >= 2 instance counts — is preserved).
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bench_json.hpp"
#include "core/report.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"

using namespace ams;

namespace {

std::string histogram_string(const std::vector<std::uint64_t>& histogram) {
    std::ostringstream os;
    bool first = true;
    for (std::size_t b = 1; b < histogram.size(); ++b) {
        if (histogram[b] == 0) continue;
        if (!first) os << " ";
        first = false;
        os << b << ":" << histogram[b];
    }
    return os.str();
}

struct RunRow {
    std::string loop;
    std::size_t instances = 0;
    double offered_qps = 0.0;  // 0 for closed loop
    serve::LoadReport report;
};

void add_report_row(core::BenchReport& bench, const RunRow& row, std::size_t max_batch) {
    core::BenchFields& out = bench.add_row();
    out.set("loop", row.loop);
    out.set("instances", static_cast<std::uint64_t>(row.instances));
    out.set("offered_qps", row.offered_qps);
    out.set("achieved_qps", row.report.achieved_qps);
    out.set("images_per_s", row.report.achieved_qps);
    out.set("issued", static_cast<std::uint64_t>(row.report.issued));
    out.set("completed", static_cast<std::uint64_t>(row.report.completed));
    out.set("duration_s", row.report.duration_s);
    out.set("latency_p50_us", row.report.latency.p50_us);
    out.set("latency_p95_us", row.report.latency.p95_us);
    out.set("latency_p99_us", row.report.latency.p99_us);
    out.set("latency_mean_us", row.report.latency.mean_us);
    out.set("latency_max_us", row.report.latency.max_us);
    out.set("queue_wait_p50_us", row.report.queue_wait.p50_us);
    out.set("queue_wait_p99_us", row.report.queue_wait.p99_us);
    out.set("mean_batch", row.report.server.mean_batch());
    out.set("batch_fill_ratio", row.report.server.batch_fill_ratio(max_batch));
    out.set("max_queue_depth", row.report.server.max_queue_depth);
    out.set("batch_histogram", histogram_string(row.report.server.batch_size_histogram));
}

}  // namespace

int main() {
    core::print_banner(std::cout, "Serving load: dynamic batching under offered-QPS sweep",
                       "infrastructure (no paper figure)");

    const bool quick = [] {
        const char* env = std::getenv("AMSNET_BENCH_QUICK");
        return env != nullptr && *env != '\0' && *env != '0';
    }();
    const std::size_t requests = quick ? 96 : 512;
    const std::vector<std::size_t> instance_counts = quick ? std::vector<std::size_t>{1, 2}
                                                           : std::vector<std::size_t>{1, 2, 4};
    const std::vector<double> load_fractions = {0.25, 0.50, 0.75, 1.00};

    serve::ServerOptions server_options;
    server_options.max_batch = 8;
    server_options.max_delay_us = 2000;

    // Quantized (8b) mini-ResNet, AMS noise off: the deterministic serving
    // datapath, so every run does identical per-image work.
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    models::ResNet primary(models::mini_resnet_config(common));
    primary.set_training(false);

    data::DatasetOptions data_options;
    data_options.classes = 10;
    data_options.train_per_class = 1;
    data_options.val_per_class = 8;
    data_options.image_size = 16;
    data_options.seed = 17;
    data::SyntheticImageNet dataset(data_options);
    const Tensor& images = dataset.val_images();
    const Shape image_shape{images.dim(1), images.dim(2), images.dim(3)};

    core::BenchReport bench("serve");
    bench.record_runtime_env();
    bench.config().set("model", "mini_resnet_8b");
    bench.config().set("image_size", static_cast<std::uint64_t>(data_options.image_size));
    bench.config().set("requests_per_run", static_cast<std::uint64_t>(requests));
    bench.config().set("max_batch", static_cast<std::uint64_t>(server_options.max_batch));
    bench.config().set("max_delay_us", server_options.max_delay_us);
    bench.config().set("quick", quick);
    {
        std::ostringstream counts;
        for (std::size_t i = 0; i < instance_counts.size(); ++i) {
            counts << (i ? "," : "") << instance_counts[i];
        }
        bench.config().set("instance_counts", counts.str());
    }

    core::Table table({"loop", "inst", "offered qps", "achieved qps", "p50 (us)", "p99 (us)",
                       "mean batch", "fill", "max depth"});
    std::vector<RunRow> rows;

    for (std::size_t instances : instance_counts) {
        serve::ServerOptions options = server_options;
        options.instances = instances;

        // Closed loop: capacity calibration.
        double capacity_qps = 0.0;
        {
            serve::InferenceServer server(primary, image_shape, options);
            serve::LoadGenOptions load;
            load.open_loop = false;
            load.clients = 2 * instances;
            load.requests = requests;
            RunRow row{"closed", instances, 0.0, run_load(server, images, load)};
            server.shutdown();
            capacity_qps = row.report.achieved_qps;
            rows.push_back(std::move(row));
        }

        // Open loop: Poisson arrivals at fractions of measured capacity.
        for (double fraction : load_fractions) {
            const double offered = std::max(1.0, capacity_qps * fraction);
            serve::InferenceServer server(primary, image_shape, options);
            serve::LoadGenOptions load;
            load.open_loop = true;
            load.offered_qps = offered;
            load.clients = 2 * instances;
            load.requests = requests;
            load.seed = 1000 + instances;
            RunRow row{"open", instances, offered, run_load(server, images, load)};
            server.shutdown();
            rows.push_back(std::move(row));
        }
    }

    for (const RunRow& row : rows) {
        table.add_row({row.loop,
                       std::to_string(row.instances),
                       row.offered_qps == 0.0 ? "-" : core::fmt_fixed(row.offered_qps, 0),
                       core::fmt_fixed(row.report.achieved_qps, 0),
                       core::fmt_fixed(row.report.latency.p50_us, 0),
                       core::fmt_fixed(row.report.latency.p99_us, 0),
                       core::fmt_fixed(row.report.server.mean_batch(), 2),
                       core::fmt_fixed(row.report.server.batch_fill_ratio(
                                           server_options.max_batch), 2),
                       std::to_string(row.report.server.max_queue_depth)});
        add_report_row(bench, row, server_options.max_batch);
    }
    table.print(std::cout);

    bool complete = true;
    for (const RunRow& row : rows) complete = complete && row.report.completed == requests;
    std::cout << "\nall requests completed in every run: " << (complete ? "yes" : "NO") << "\n";

    bench.capture_runtime_metrics();
    std::cout << "Artifact written to " << bench.write_artifact() << "\n";
    return complete ? 0 : 1;
}

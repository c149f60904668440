/**
 * @file
 * The predictor zoo: every direction-predictor backend (hybrid,
 * TAGE, hashed perceptron) under baseline and microthread modes.
 *
 * The question this bench answers (EXPERIMENTS.md "predictor zoo"):
 * the paper's premise is that some branches stay hard under a strong
 * 2002-era hybrid — do difficult paths survive a modern TAGE or
 * perceptron front end, and does subordinate-microthread prediction
 * still pay? Per backend it reports baseline IPC and hardware
 * mispredict rate, the microthread speedup over that same backend's
 * baseline, and how much difficult-path work the classifier still
 * finds (promotions, microthread prediction accuracy).
 */

#include <cstdio>

#include "bench_util.hh"
#include "bpred/direction_predictor.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("predictor_zoo", args);

    // [backend][mode]: variant order fixes the manifest/result layout.
    const auto &kinds = bpred::allPredictorKinds();
    std::vector<sim::CampaignVariant> variants;
    for (bpred::PredictorKind kind : kinds) {
        std::string backend = bpred::predictorKindName(kind);
        variants.push_back(
            {backend + "-baseline", {"predictor=" + backend}});
        variants.push_back({backend + "-microthread",
                            {"predictor=" + backend, "mode=microthread"}});
    }
    auto results = run.grid(suite, variants);

    std::printf("Predictor zoo: difficult-path microthreads over "
                "each direction backend\n\n");
    std::printf("%-12s", "bench");
    for (bpred::PredictorKind kind : kinds)
        std::printf(" | %-8.8s mis    speedup",
                    bpred::predictorKindName(kind));
    std::printf("\n");
    bench::hr(12 + 25 * static_cast<int>(kinds.size()));

    std::vector<double> mis_sum(kinds.size(), 0.0);
    std::vector<std::vector<double>> speedups(kinds.size());
    std::vector<double> upred_correct(kinds.size(), 0.0);
    std::vector<double> upred_total(kinds.size(), 0.0);
    std::vector<double> promotions(kinds.size(), 0.0);

    for (size_t w = 0; w < suite.size(); w++) {
        std::printf("%-12s", suite[w].name.c_str());
        for (size_t k = 0; k < kinds.size(); k++) {
            const sim::Stats &base = results[w][2 * k].stats;
            const sim::Stats &micro = results[w][2 * k + 1].stats;
            double s = sim::speedup(micro, base);
            std::printf(" | %8.3f %6.4f %6.3f", base.ipc(),
                        base.hwMispredictRate(), s);
            mis_sum[k] += base.hwMispredictRate();
            speedups[k].push_back(s);
            upred_correct[k] +=
                static_cast<double>(micro.microPredCorrect);
            upred_total[k] +=
                static_cast<double>(micro.microPredCorrect +
                                    micro.microPredWrong);
            promotions[k] +=
                static_cast<double>(micro.promotionsCompleted);
        }
        std::printf("\n");
    }
    bench::hr(12 + 25 * static_cast<int>(kinds.size()));
    std::printf("%-12s", "geo mean");
    for (size_t k = 0; k < kinds.size(); k++)
        std::printf(" | %8s %6.4f %6.3f", "",
                    mis_sum[k] / static_cast<double>(suite.size()),
                    sim::geomean(speedups[k]));
    std::printf("   (mis = arith mean)\n");

    std::printf("\nDifficult-path classifier per backend "
                "(suite totals, microthread runs):\n");
    for (size_t k = 0; k < kinds.size(); k++) {
        double acc = upred_total[k] > 0
                         ? upred_correct[k] / upred_total[k]
                         : 0.0;
        std::printf("  %-10s promotions %8.0f   microthread pred "
                    "accuracy %5.1f%%   speedup x%.3f\n",
                    bpred::predictorKindName(kinds[k]), promotions[k],
                    100.0 * acc, sim::geomean(speedups[k]));
    }

    run.finish();
    return 0;
}

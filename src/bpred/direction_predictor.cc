#include "bpred/direction_predictor.hh"

#include "bpred/hybrid.hh"
#include "bpred/perceptron.hh"
#include "bpred/tage.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Hybrid:
        return "hybrid";
      case PredictorKind::Tage:
        return "tage";
      case PredictorKind::Perceptron:
        return "perceptron";
    }
    return "?";
}

const std::vector<PredictorKind> &
allPredictorKinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::Hybrid, PredictorKind::Tage,
        PredictorKind::Perceptron};
    return kinds;
}

bool
parsePredictorKind(const std::string &name, PredictorKind *out)
{
    for (PredictorKind kind : allPredictorKinds()) {
        if (name == predictorKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

std::unique_ptr<DirectionPredictor>
makeDirectionPredictor(const DirectionConfig &cfg)
{
    // TAGE and the perceptron derive their geometries from the
    // hybrid's component budget (componentEntries 2-bit counters per
    // component) so the three backends compete at comparable storage:
    // at the 128K default, TAGE gets a 16K bimodal base + 6 x 4K
    // tagged entries and the perceptron 9 x 4K 8-bit weights.
    auto scaled = [&cfg](uint64_t divisor, uint64_t floor) {
        uint64_t entries = cfg.componentEntries / divisor;
        return entries < floor ? floor : entries;
    };
    switch (cfg.kind) {
      case PredictorKind::Hybrid:
        return std::make_unique<Hybrid>(cfg.componentEntries,
                                        cfg.selectorEntries,
                                        cfg.historyBits);
      case PredictorKind::Tage:
        return std::make_unique<Tage>(scaled(8, 1024),
                                      scaled(32, 256));
      case PredictorKind::Perceptron:
        return std::make_unique<Perceptron>(scaled(32, 256));
    }
    SSMT_PANIC("unknown direction-predictor kind");
}

} // namespace bpred
} // namespace ssmt

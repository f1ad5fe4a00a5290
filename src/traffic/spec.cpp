#include "traffic/spec.hpp"

#include <string>

#include "common/spec_parse.hpp"
#include "traffic/adversary.hpp"

namespace lgg::traffic {

namespace {

AdversaryStrategy parse_strategy(const common::SpecClause& args,
                                 std::string_view word) {
  if (word == "hoard") return AdversaryStrategy::kHoardDump;
  if (word == "sweep") return AdversaryStrategy::kRotatingSweep;
  if (word == "queue_aware") return AdversaryStrategy::kQueueAware;
  args.fail("unknown strategy \"" + std::string(word) +
            "\" (hoard | sweep | queue_aware)");
}

}  // namespace

std::unique_ptr<core::ArrivalProcess> make_arrival(std::string_view spec) {
  common::SpecClause args(spec, "arrival spec");
  const std::string_view name = args.name();
  std::unique_ptr<core::ArrivalProcess> process;
  if (name == "exact") {
    process = std::make_unique<core::ExactArrival>();
  } else if (name == "scaled") {
    process =
        std::make_unique<core::ScaledArrival>(args.number<double>("factor"));
  } else if (name == "bernoulli") {
    process =
        std::make_unique<core::BernoulliArrival>(args.number<double>("p"));
  } else if (name == "uniform") {
    process =
        std::make_unique<core::UniformArrival>(args.number<double>("mean"));
  } else if (name == "poisson") {
    process =
        std::make_unique<core::PoissonArrival>(args.number<double>("mean"));
  } else if (name == "geometric") {
    process =
        std::make_unique<core::GeometricArrival>(args.number<double>("mean"));
  } else if (name == "burst") {
    const double high = args.number<double>("high");
    const double low = args.number<double>("low");
    const auto len = args.number<TimeStep>("len");
    const auto period = args.number<TimeStep>("period");
    process = std::make_unique<core::BurstArrival>(high, low, len, period);
  } else if (name == "diurnal") {
    const double mean = args.number<double>("mean");
    const double amp = args.number<double>("amp");
    const auto period = args.number<TimeStep>("period");
    process = std::make_unique<core::DiurnalArrival>(mean, amp, period);
  } else if (name == "pareto") {
    const double alpha = args.number<double>("alpha");
    const double mean = args.number<double>("mean");
    process = std::make_unique<core::ParetoArrival>(alpha, mean);
  } else if (name == "leaky") {
    const double rho = args.number<double>("rho");
    const double sigma = args.number<double>("sigma");
    process = std::make_unique<core::LeakyBucketArrival>(rho, sigma);
  } else if (name == "token_bucket") {
    const double r = args.number<double>("r");
    const double b = args.number<double>("b");
    const auto period = args.number<TimeStep>("period");
    process = std::make_unique<core::TokenBucketArrival>(r, b, period);
  } else if (name == "adversary") {
    AdversaryOptions opt;
    if (const auto word = args.take("strategy")) {
      opt.strategy = parse_strategy(args, *word);
    }
    opt.rho = args.take_number<double>("rho").value_or(opt.rho);
    opt.sigma = args.take_number<double>("sigma").value_or(opt.sigma);
    opt.period = args.take_number<TimeStep>("period").value_or(opt.period);
    opt.fanout =
        args.take_number<std::uint32_t>("fanout").value_or(opt.fanout);
    process = std::make_unique<AdversarialArrival>(opt);
  } else {
    args.fail("unknown arrival process \"" + std::string(name) + "\"");
  }
  args.finish();
  return process;
}

std::string_view arrival_grammar_help() {
  return "exact | scaled:factor= | bernoulli:p= | uniform:mean= | "
         "poisson:mean= | geometric:mean= | "
         "burst:high=,low=,len=,period= | diurnal:mean=,amp=,period= | "
         "pareto:alpha=,mean= | leaky:rho=,sigma= | "
         "token_bucket:r=,b=,period= | "
         "adversary[:strategy=hoard|sweep|queue_aware,rho=,sigma=,"
         "period=,fanout=]";
}

}  // namespace lgg::traffic

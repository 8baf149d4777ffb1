// Quickstart: generate one synthetic server-week, fit the FULL-Web model,
// and print the complete report (arrival-process LRD, Poisson verdicts,
// intra-session tail indices).
//
//   ./quickstart --server CSEE --scale 1.0 --seed 7
#include <cstdio>
#include <iostream>

#include "core/fullweb_model.h"
#include "support/cli.h"
#include "support/executor.h"
#include "synth/generator.h"

int main(int argc, char** argv) {
  using namespace fullweb;

  support::CliFlags flags;
  flags.define("server", "CSEE", "WVU | ClarkNet | CSEE | NASA-Pub2");
  flags.define("scale", "1.0", "volume scale relative to the paper's week");
  flags.define("seed", "7", "random seed");
  flags.define("days", "7", "days of synthetic traffic");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  if (!flags.parse(argc, argv)) return 2;
  support::Executor::set_global_threads(flags.get_count("threads"));

  synth::ServerProfile profile = synth::ServerProfile::csee();
  const std::string which = flags.get("server");
  if (which == "WVU") profile = synth::ServerProfile::wvu();
  else if (which == "ClarkNet") profile = synth::ServerProfile::clarknet();
  else if (which == "NASA-Pub2") profile = synth::ServerProfile::nasa_pub2();
  else if (which != "CSEE") {
    std::fprintf(stderr, "unknown server '%s'\n", which.c_str());
    return 2;
  }

  support::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  synth::GeneratorOptions gen;
  gen.scale = flags.get_double("scale");
  gen.duration = static_cast<double>(flags.get_int("days")) * 86400.0;

  std::printf("generating %s week (scale %.2f)...\n", profile.name.c_str(),
              gen.scale);
  auto dataset = synth::generate_dataset(profile, gen, rng);
  if (!dataset) {
    std::fprintf(stderr, "generation failed: %s\n",
                 dataset.error().message.c_str());
    return 1;
  }

  std::printf("fitting FULL-Web model (%zu requests, %zu sessions)...\n",
              dataset.value().requests().size(),
              dataset.value().sessions().size());
  auto model = core::fit_fullweb_model(dataset.value(), rng);
  if (!model) {
    std::fprintf(stderr, "analysis failed: %s\n", model.error().message.c_str());
    return 1;
  }
  std::cout << core::render_report(model.value());
  return 0;
}

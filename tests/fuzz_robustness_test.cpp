// Robustness fuzzing: randomly corrupted module images must never crash
// the parser, validator or checker — every malformed input either parses
// or raises mc::FormatError (no UB, no other exception types, no hangs).
//
// This is the adversarial contract of an introspection tool: the guest is
// untrusted, so anything read from it may be hostile.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/catalog.hpp"
#include "cloud/golden.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/validate.hpp"
#include "util/rng.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;

const Bytes& golden_file() {
  static const cloud::GoldenImages golden(cloud::default_catalog());
  return golden.file("tcpip.sys");
}

/// Applies `n` random byte mutations.
Bytes mutate(ByteView original, std::uint64_t seed, int n) {
  Xoshiro256 rng(seed);
  Bytes out(original.begin(), original.end());
  for (int i = 0; i < n; ++i) {
    const auto pos = rng.below(out.size());
    out[pos] = static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ValidatorNeverCrashes) {
  for (const int mutations : {1, 4, 16, 64, 256}) {
    const Bytes file = mutate(golden_file(), GetParam() * 131 + 7,
                              mutations);
    // Must return a report or throw FormatError — nothing else.
    try {
      const auto report = pe::validate_image_file(file);
      (void)report.ok();
    } catch (const FormatError&) {
    }
  }
}

TEST_P(FuzzSeeds, MapperAndParserNeverCrash) {
  for (const int mutations : {1, 8, 64}) {
    const Bytes file = mutate(golden_file(), GetParam() * 977 + 3,
                              mutations);
    try {
      const Bytes mapped = pe::map_image(file);
      const pe::ParsedImage parsed{ByteView(mapped)};
      const auto items = parsed.extract_items(vmi::GuestView(mapped));
      (void)items.size();
    } catch (const FormatError&) {
    } catch (const InvalidArgument&) {
      // Bounds guards in byte helpers may fire first on wild offsets.
    }
  }
}

TEST_P(FuzzSeeds, HeaderCorruptionInGuestNeverCrashesChecker) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 3;
  cloud::CloudEnvironment env(cfg);
  Xoshiro256 rng(GetParam());

  // Corrupt 8 random bytes of the headers region of a loaded module.
  for (int i = 0; i < 8; ++i) {
    const auto rva = static_cast<std::uint32_t>(rng.below(0x400));
    const auto mask = static_cast<std::uint8_t>(rng.range(1, 255));
    attacks::BytePatchAttack(rva, mask).apply(env, env.guests()[0],
                                              "tcpip.sys");
  }

  core::ModChecker checker(env.hypervisor());
  const auto report = checker.check_module(env.guests()[0], "tcpip.sys");
  // Whatever the corruption did, it must be *flagged*, not ignored and
  // not fatal.
  EXPECT_FALSE(report.subject_clean);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 16));

// ---- randomized fault profiles x the paper's attacks --------------------------
//
// Detection must survive an unreliable cloud: whatever transient faults
// the guests throw, an infected VM that still answers its acquire is
// flagged whenever the vote has quorum behind it — faults may erode the
// electorate, never the verdict of the voters that remain.

struct FaultyAttackCase {
  const char* module;
  int attack;  // 0..3 = E1..E4
};

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, InfectedAnsweringVmsAreFlaggedWheneverQuorumHolds) {
  Xoshiro256 rng(GetParam() * 6151 + 11);
  static const FaultyAttackCase kCases[] = {
      {"hal.dll", 0}, {"hal.dll", 1}, {"dummy.sys", 2}, {"dummy.sys", 3}};
  const FaultyAttackCase& c = kCases[rng.below(4)];

  cloud::CloudConfig cfg;
  cfg.guest_count = 6;
  cloud::CloudEnvironment env(cfg);
  const auto& guests = env.guests();
  const vmm::DomainId victim = guests[rng.below(guests.size())];

  switch (c.attack) {
    case 0: attacks::OpcodeReplaceAttack{}.apply(env, victim, c.module); break;
    case 1: attacks::InlineHookAttack{}.apply(env, victim, c.module); break;
    case 2: attacks::StubPatchAttack{}.apply(env, victim, c.module); break;
    default: attacks::DllImportInjectAttack{}.apply(env, victim, c.module);
  }

  // Random fault weather: each guest independently gets a random (possibly
  // zero) read-fault rate with its own RNG stream.
  static const double kRates[] = {0.0, 0.002, 0.005, 0.01};
  for (const vmm::DomainId vm : guests) {
    vmm::FaultProfile profile;
    profile.read_fault_rate = kRates[rng.below(4)];
    profile.seed = rng.next();
    env.hypervisor().fault_injector().arm(vm, profile);
  }

  core::ModChecker checker(env.hypervisor());
  const auto scan = checker.scan_pool(c.module, guests);
  ASSERT_EQ(scan.verdicts.size(), guests.size());
  for (const auto& v : scan.verdicts) {
    if (v.quarantined || v.quorum_lost) {
      continue;  // no (trustworthy) verdict to hold to account
    }
    EXPECT_EQ(v.clean, v.vm != victim)
        << "Dom" << v.vm << " module " << c.module << " attack E"
        << (c.attack + 1) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(FaultWeather, FaultFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(FuzzTruncation, EveryPrefixLengthIsHandled) {
  const Bytes& file = golden_file();
  // Sweep a logarithmic set of truncation points.
  for (std::size_t len = 1; len < file.size(); len = len * 2 + 13) {
    const Bytes prefix(file.begin(),
                       file.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)pe::map_image(prefix);
    } catch (const FormatError&) {
    } catch (const InvalidArgument&) {
    }
    try {
      (void)pe::validate_image_file(prefix);
    } catch (const FormatError&) {
    }
  }
}

}  // namespace

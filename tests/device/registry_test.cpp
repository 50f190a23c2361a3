// DeviceRegistry: the open lookup surface behind every tool and the
// service. Pins the pre-registered paper devices, the byte-stable
// JSON round-trip (dump -> load -> re-dump), and the structured
// diagnostics: SL522 unknown name (with nearest-name hint), SL523
// duplicate registration, SL524 malformed JSON.
#include "device/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "cpusim/device.hpp"
#include "gpusim/device.hpp"

namespace repro::device {
namespace {

using analysis::Code;
using analysis::DiagnosticEngine;

TEST(Registry, PreRegisteredPaperDevices) {
  DeviceRegistry& reg = registry();
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "GTX 980");
  EXPECT_EQ(names[1], "Titan X");
  EXPECT_EQ(names[2], "Xeon E5-2690 v4");
  EXPECT_EQ(names[3], "Ryzen 7 3700X");

  ASSERT_NE(reg.find("GTX 980"), nullptr);
  EXPECT_TRUE(reg.find("GTX 980")->is_gpu());
  ASSERT_NE(reg.find("Xeon E5-2690 v4"), nullptr);
  EXPECT_TRUE(reg.find("Xeon E5-2690 v4")->is_cpu());
  EXPECT_EQ(reg.find("Xeon E5-2690 v4")->cpu().cores,
            cpusim::xeon_e5_2690v4().cores);
}

TEST(Registry, DumpLoadRedumpIsByteIdentical) {
  const std::string dumped = registry().dump();
  DeviceRegistry fresh;
  DiagnosticEngine diags;
  ASSERT_TRUE(fresh.load(dumped, &diags))
      << analysis::render_human(diags.diagnostics(), "<registry>");
  EXPECT_EQ(fresh.size(), registry().size());
  EXPECT_EQ(fresh.dump(), dumped);
}

TEST(Registry, DescriptorJsonRoundTripsBothKinds) {
  for (const char* name : {"Titan X", "Ryzen 7 3700X"}) {
    const Descriptor* d = registry().find(name);
    ASSERT_NE(d, nullptr) << name;
    const std::string once = d->to_json();
    const auto back = Descriptor::from_json(*json::parse(once), nullptr);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(back->kind(), d->kind());
    EXPECT_EQ(back->to_json(), once) << name;
  }
}

TEST(Registry, UnknownNameIsSL522WithNearestHint) {
  DiagnosticEngine diags;
  EXPECT_EQ(registry().resolve("GTX 908", &diags), nullptr);
  ASSERT_TRUE(diags.has_code(Code::kAuditUnknownDevice));
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  const analysis::Diagnostic& d = diags.diagnostics()[0];
  // The message lists what IS registered; the hint names the nearest.
  EXPECT_NE(d.message.find("GTX 908"), std::string::npos);
  EXPECT_NE(d.message.find("Xeon E5-2690 v4"), std::string::npos);
  EXPECT_NE(d.hint.find("GTX 980"), std::string::npos);
}

TEST(Registry, NearestIsCaseInsensitiveAndBounded) {
  const std::vector<std::string> near = registry().nearest("titan x");
  ASSERT_FALSE(near.empty());
  EXPECT_EQ(near[0], "Titan X");
  // A name nothing like any registered device suggests nothing.
  EXPECT_TRUE(registry().nearest("completely-unrelated-device-zzz").empty());
}

TEST(Registry, DuplicateRegistrationIsSL523) {
  DeviceRegistry reg;
  EXPECT_TRUE(reg.add(Descriptor(gpusim::gtx980()), nullptr));
  DiagnosticEngine diags;
  EXPECT_FALSE(reg.add(Descriptor(gpusim::gtx980()), &diags));
  EXPECT_TRUE(diags.has_code(Code::kAuditDuplicateDevice));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, MalformedJsonIsSL524) {
  DeviceRegistry reg;
  {
    DiagnosticEngine diags;
    EXPECT_FALSE(reg.load("{not json", &diags));
    EXPECT_TRUE(diags.has_code(Code::kAuditRegistryJson));
  }
  {
    // Well-formed JSON, wrong shape.
    DiagnosticEngine diags;
    EXPECT_FALSE(reg.load(R"({"devices": [{"kind": "abacus"}]})", &diags));
    EXPECT_TRUE(diags.has_code(Code::kAuditRegistryJson));
  }
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, LoadExtendsAndRejectsCrossFileDuplicates) {
  DeviceRegistry reg;
  ASSERT_TRUE(reg.add(Descriptor(cpusim::ryzen_3700x()), nullptr));
  // A registry file that collides with an already-registered name
  // fails with SL523 but still registers the non-colliding entries.
  DeviceRegistry source;
  ASSERT_TRUE(source.add(Descriptor(gpusim::titan_x()), nullptr));
  ASSERT_TRUE(source.add(Descriptor(cpusim::ryzen_3700x()), nullptr));
  DiagnosticEngine diags;
  EXPECT_FALSE(reg.load(source.dump(), &diags));
  EXPECT_TRUE(diags.has_code(Code::kAuditDuplicateDevice));
  EXPECT_NE(reg.find("Titan X"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

}  // namespace
}  // namespace repro::device

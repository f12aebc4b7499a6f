// End-to-end smoke tests: assemble small programs, run them on the
// simulated machine through the kernel, and check both semantics and
// timing-model invariants.

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/kernel/kernel.h"

namespace dcpi {
namespace {

std::shared_ptr<ExecutableImage> MustAssemble(const std::string& name, uint64_t base,
                                              const std::string& source) {
  auto result = Assemble(name, base, source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(KernelSmoke, SumLoopComputesAndHalts) {
  const char* source = R"(
        .text
        .proc main
        li    r1, 0          # sum
        li    r2, 100        # counter
loop:
        addq  r1, r2, r1
        subq  r2, 1, r2
        bne   r2, loop
        lia   r3, result
        stq   r1, 0(r3)
        halt
        .endp
        .data
result: .quad 0
)";
  auto image = MustAssemble("sum", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("sum", {image}, "main");
  ASSERT_TRUE(process.ok()) << process.status().ToString();
  kernel.Run();
  EXPECT_FALSE(kernel.HadProcessError());
  EXPECT_EQ(process.value()->state(), ProcessState::kDone);

  uint64_t value = 0;
  uint64_t addr = image->DataSymbolAddress("result").value();
  ASSERT_TRUE(process.value()->aspace().Load(addr, 8, &value));
  EXPECT_EQ(value, 5050u);  // 1 + 2 + ... + 100
}

// Loads and stores inside one page take the single-page path; those that
// straddle a page boundary go byte by byte. Both must agree on the
// little-endian layout, and neither may reach outside the mapped range.
TEST(AddressSpace, LoadStoreRoundTripInPageAndAcrossPages) {
  AddressSpace aspace(/*page_seed=*/5);
  const uint64_t base = 0x0200'0000;
  ASSERT_TRUE(aspace.MapAnonymous(base, 3 * kPageBytes).ok());
  const uint64_t crossing = base + kPageBytes - 3;  // bytes in two pages
  const uint64_t in_page = base + 2 * kPageBytes + 64;
  ASSERT_TRUE(aspace.Store(crossing, 8, 0x1122'3344'5566'7788ull));
  ASSERT_TRUE(aspace.Store(in_page, 8, 0x0102'0304'0506'0708ull));
  ASSERT_TRUE(aspace.Store(in_page + 8, 4, 0xaabb'ccddull));

  uint64_t value = 0;
  ASSERT_TRUE(aspace.Load(crossing, 8, &value));
  EXPECT_EQ(value, 0x1122'3344'5566'7788ull);
  ASSERT_TRUE(aspace.Load(in_page, 8, &value));
  EXPECT_EQ(value, 0x0102'0304'0506'0708ull);
  ASSERT_TRUE(aspace.Load(in_page + 8, 4, &value));
  EXPECT_EQ(value, 0xaabb'ccddull);
  // Byte layout: the low byte first, on either side of the boundary.
  ASSERT_TRUE(aspace.Load(crossing, 4, &value));
  EXPECT_EQ(value, 0x5566'7788ull);
  ASSERT_TRUE(aspace.Load(base + kPageBytes, 4, &value));  // crossing + 3
  EXPECT_EQ(value, 0x2233'4455ull);
  ASSERT_TRUE(aspace.Load(in_page + 4, 8, &value));  // spans both stores
  EXPECT_EQ(value, 0xaabb'ccdd'0102'0304ull);

  EXPECT_FALSE(aspace.Load(base + 3 * kPageBytes - 4, 8, &value));  // runs off the end
  EXPECT_FALSE(aspace.Store(base - 8, 8, 0));
}

TEST(KernelSmoke, FaultNamesProcessPcAndDataAddress) {
  const char* source = R"(
        .text
        .proc main
        li    r1, 0x30000000   # mapped by nothing
        ldq   r2, 8(r1)
        halt
        .endp
)";
  auto image = MustAssemble("wild", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("wild_load", {image}, "main");
  ASSERT_TRUE(process.ok()) << process.status().ToString();
  kernel.Run();
  EXPECT_TRUE(kernel.HadProcessError());
  EXPECT_EQ(process.value()->state(), ProcessState::kDone);

  std::optional<ProcessFault> fault = kernel.FirstFault();
  ASSERT_TRUE(fault.has_value());
  const uint64_t ldq_pc = image->text_base() + 2 * kInstrBytes;  // li is two instructions
  EXPECT_EQ(fault->pid, process.value()->pid());
  EXPECT_EQ(fault->process, "wild_load");
  EXPECT_EQ(fault->reason, ExitReason::kBadMemory);
  EXPECT_EQ(fault->pc, ldq_pc);
  EXPECT_EQ(fault->data_va, 0x3000'0008u);
  std::string text = fault->ToString();
  EXPECT_NE(text.find("pid 1 (wild_load)"), std::string::npos) << text;
  EXPECT_NE(text.find("bad memory"), std::string::npos) << text;
  EXPECT_NE(text.find("pc 0x1000008"), std::string::npos) << text;
  EXPECT_NE(text.find("data VA 0x30000008"), std::string::npos) << text;
}

TEST(KernelSmoke, GroundTruthCountsLoopIterations) {
  const char* source = R"(
        .text
        .proc main
        li    r2, 1000
loop:
        subq  r2, 1, r2
        bne   r2, loop
        halt
        .endp
)";
  auto image = MustAssemble("loop", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("loop", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());

  const ImageTruth* truth = kernel.ground_truth().FindImage(image.get());
  ASSERT_NE(truth, nullptr);
  const ProcedureSymbol* main_proc = image->FindProcedureByName("main");
  ASSERT_NE(main_proc, nullptr);
  // The subq at index 2 (after the two-instruction li) runs 1000 times.
  uint64_t subq_index = 2;
  EXPECT_EQ(truth->instructions[subq_index].exec_count, 1000u);
  // The bne is taken 999 times: one back edge with count 999.
  uint64_t loop_off = subq_index * kInstrBytes;
  auto edge = truth->edges.find({loop_off + kInstrBytes, loop_off});
  ASSERT_NE(edge, truth->edges.end());
  EXPECT_EQ(edge->second, 999u);
}

TEST(KernelSmoke, FloatingPointPipelineWorks) {
  const char* source = R"(
        .text
        .proc main
        lia   r1, vec
        ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        addt  f1, f2, f3
        mult  f1, f2, f4
        divt  f4, f2, f5
        subt  f5, f1, f6     # should be ~0
        stt   f3, 16(r1)
        stt   f6, 24(r1)
        halt
        .endp
        .data
vec:    .double 2.5, 4.0
        .space 16
)";
  auto image = MustAssemble("fp", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("fp", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());

  uint64_t addr = image->DataSymbolAddress("vec").value();
  uint64_t bits = 0;
  ASSERT_TRUE(process.value()->aspace().Load(addr + 16, 8, &bits));
  double sum;
  memcpy(&sum, &bits, 8);
  EXPECT_DOUBLE_EQ(sum, 6.5);
  ASSERT_TRUE(process.value()->aspace().Load(addr + 24, 8, &bits));
  double near_zero;
  memcpy(&near_zero, &bits, 8);
  EXPECT_NEAR(near_zero, 0.0, 1e-12);
}

TEST(KernelSmoke, ProcedureCallAndReturn) {
  const char* source = R"(
        .text
        .proc main
        li    r1, 7
        bsr   r26, double_it
        lia   r3, out
        stq   r1, 0(r3)
        halt
        .endp
        .proc double_it
        addq  r1, r1, r1
        ret   r31, (r26)
        .endp
        .data
out:    .quad 0
)";
  auto image = MustAssemble("call", 0x0100'0000, source);
  KernelConfig config;
  Kernel kernel(config);
  auto process = kernel.CreateProcess("call", {image}, "main");
  ASSERT_TRUE(process.ok());
  kernel.Run();
  ASSERT_FALSE(kernel.HadProcessError());
  uint64_t value = 0;
  uint64_t addr = image->DataSymbolAddress("out").value();
  ASSERT_TRUE(process.value()->aspace().Load(addr, 8, &value));
  EXPECT_EQ(value, 14u);
}

TEST(KernelSmoke, MultiCpuRunsAllProcesses) {
  const char* source = R"(
        .text
        .proc main
        li    r2, 5000
loop:
        subq  r2, 1, r2
        bne   r2, loop
        halt
        .endp
)";
  KernelConfig config;
  config.num_cpus = 4;
  Kernel kernel(config);
  std::vector<Process*> procs;
  for (int i = 0; i < 8; ++i) {
    auto image = MustAssemble("p" + std::to_string(i),
                              0x0100'0000 + static_cast<uint64_t>(i) * 0x10'0000, source);
    auto process = kernel.CreateProcess("p" + std::to_string(i), {image}, "main");
    ASSERT_TRUE(process.ok());
    procs.push_back(process.value());
  }
  kernel.Run();
  EXPECT_FALSE(kernel.HadProcessError());
  for (Process* p : procs) EXPECT_EQ(p->state(), ProcessState::kDone);
  // The kernel image saw context switches on every CPU.
  const ImageTruth* vmunix = kernel.ground_truth().FindImage(kernel.vmunix().get());
  ASSERT_NE(vmunix, nullptr);
  uint64_t kernel_instrs = 0;
  for (const auto& t : vmunix->instructions) kernel_instrs += t.exec_count;
  EXPECT_GT(kernel_instrs, 0u);
}

}  // namespace
}  // namespace dcpi

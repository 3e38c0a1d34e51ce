"""Tests of the §III-C source-to-source translator."""

import pytest

from repro.core.translator import (
    SourceTranslator,
    TranslationError,
)
from repro.vm.mmap import DIRECT_STORE_WINDOW_BASE
from repro.vm.pagetable import PAGE_SIZE

SIMPLE_PROGRAM = """
#define N 1024
int main() {
    float *a;
    float *b;
    float *c;
    a = (float *)malloc(N * sizeof(float));
    b = (float *)malloc(N * sizeof(float));
    c = (float *)malloc(N * sizeof(float));
    vecadd<<<blocks, threads>>>(a, b, c);
    return 0;
}
"""


class TestKernelScan:
    def test_finds_kernel_call(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        assert report.kernel_calls[0][0] == "vecadd"
        assert report.kernel_calls[0][1] == ("a", "b", "c")

    def test_kernel_arguments_deduplicated_across_calls(self):
        source = SIMPLE_PROGRAM + "\nvecadd<<<g, b>>>(a, b, c);\n"
        report = SourceTranslator().translate_source(source)
        assert report.kernel_arguments == ["a", "b", "c"]

    def test_four_launch_parameter_form(self):
        source = """
        int *x;
        x = (int *)malloc(4096);
        k<<<Dg, Db, Ns, S>>>(x);
        """
        report = SourceTranslator().translate_source(source)
        assert report.kernel_arguments == ["x"]

    def test_address_of_arguments_stripped(self):
        source = """
        int *x;
        x = (int *)malloc(4096);
        k<<<g, b>>>(&x);
        """
        report = SourceTranslator().translate_source(source)
        assert report.kernel_arguments == ["x"]

    def test_literal_arguments_ignored(self):
        source = """
        int *x;
        x = (int *)malloc(4096);
        k<<<g, b>>>(x, 42, 3.0f);
        """
        report = SourceTranslator().translate_source(source)
        assert report.kernel_arguments == ["x"]


class TestRewriting:
    def test_malloc_rewritten_to_mmap(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        translated = report.translated_sources["main.cu"]
        assert "malloc" not in translated
        assert translated.count("MAP_FIXED") == 3
        assert "mmap((void *)0x" in translated

    def test_size_expression_preserved_verbatim(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        translated = report.translated_sources["main.cu"]
        assert "N * sizeof(float)" in translated

    def test_window_addresses_start_at_base(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        assert report.allocations[0].window_address == \
            DIRECT_STORE_WINDOW_BASE

    def test_window_addresses_never_overlap(self):
        # §III-C: "no overlapping starting virtual addresses"
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        spans = sorted((a.window_address,
                        a.window_address + a.size_bytes)
                       for a in report.allocations)
        for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_addresses_page_aligned(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        for allocation in report.allocations:
            assert allocation.window_address % PAGE_SIZE == 0

    def test_cudamalloc_form(self):
        source = """
        #define COUNT 256
        float *dev;
        cudaMalloc((void **)&dev, COUNT * sizeof(float));
        k<<<g, b>>>(dev);
        """
        report = SourceTranslator().translate_source(source)
        assert len(report.allocations) == 1
        assert report.allocations[0].allocator == "cudaMalloc"
        assert report.allocations[0].size_bytes == 1024

    def test_non_kernel_mallocs_untouched(self):
        source = """
        int *gpu_buf; int *host_only;
        gpu_buf = (int *)malloc(4096);
        host_only = (int *)malloc(8192);
        k<<<g, b>>>(gpu_buf);
        """
        report = SourceTranslator().translate_source(source)
        translated = report.translated_sources["main.cu"]
        assert "host_only = (int *)malloc(8192);" in translated
        assert [a.name for a in report.allocations] == ["gpu_buf"]

    def test_multi_file_program(self):
        sources = {
            "alloc.cu": "#define M 64\nfloat *w;\n"
                        "w = (float *)malloc(M * sizeof(float));\n",
            "main.cu": "train<<<g, b>>>(w);\n",
        }
        report = SourceTranslator().translate(sources)
        assert [a.name for a in report.allocations] == ["w"]
        assert "mmap" in report.translated_sources["alloc.cu"]

    def test_unresolved_arguments_reported(self):
        source = "k<<<g, b>>>(mystery);\n"
        report = SourceTranslator().translate_source(source)
        assert report.unresolved == ["mystery"]


class TestSizeEvaluation:
    def evaluate(self, expression, constants=None):
        translator = SourceTranslator()
        return translator._eval_size(expression, constants or {})

    def test_literal(self):
        assert self.evaluate("4096") == 4096

    def test_sizeof(self):
        assert self.evaluate("sizeof(float)") == 4
        assert self.evaluate("sizeof(double)") == 8
        assert self.evaluate("sizeof(int *)") == 8

    def test_arithmetic(self):
        assert self.evaluate("100 * sizeof(int) + 8") == 408
        assert self.evaluate("(2 + 3) * 4") == 20

    def test_constants(self):
        assert self.evaluate("N * sizeof(float)", {"N": 10}) == 40

    def test_const_int_declarations_collected(self):
        source = """
        const int rows = 128;
        float *m;
        m = (float *)malloc(rows * rows * sizeof(float));
        k<<<g, b>>>(m);
        """
        report = SourceTranslator().translate_source(source)
        assert report.allocations[0].size_bytes == 128 * 128 * 4

    def test_unknown_symbol_rejected(self):
        with pytest.raises(TranslationError):
            self.evaluate("UNKNOWN * 4")

    def test_unknown_type_rejected(self):
        with pytest.raises(TranslationError):
            self.evaluate("sizeof(struct foo)")

    def test_nonpositive_rejected(self):
        with pytest.raises(TranslationError):
            self.evaluate("4 - 4")

    def test_function_calls_rejected(self):
        with pytest.raises(TranslationError):
            self.evaluate("getpagesize()")

    def test_hex_define(self):
        source = """
        #define SZ 0x1000
        char *b;
        b = (char *)malloc(SZ);
        k<<<g, b>>>(b);
        """
        report = SourceTranslator().translate_source(source)
        assert report.allocations[0].size_bytes == 4096


class TestEndToEnd:
    def test_translated_program_compiles_pattern_free(self):
        """After translation, re-running finds nothing left to rewrite."""
        translator = SourceTranslator()
        first = translator.translate_source(SIMPLE_PROGRAM)
        second = translator.translate(first.translated_sources)
        assert second.allocations == []

    def test_window_layout_mapping(self):
        report = SourceTranslator().translate_source(SIMPLE_PROGRAM)
        sizes = {alloc.name: alloc.size_bytes for alloc in report.allocations}
        assert sizes == {"a": 4096, "b": 4096, "c": 4096}

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiotopo.harness import run_tree
from radiotopo.labels import (
    FIELD_COUNTS,
    LabelKind,
    MalformedLabel,
    StructuredLabel,
    decode,
    encode,
    labels_from_text,
    labels_to_text,
    scheme_length,
)
from radiotopo.trees import path_tree

bit_fields = st.text(alphabet="01", min_size=0, max_size=9)


@st.composite
def labels(draw):
    kind = draw(st.sampled_from(list(LabelKind)))
    fields = tuple(draw(bit_fields) for _ in range(FIELD_COUNTS[kind]))
    return StructuredLabel(kind=kind, fields=fields)


def hub(f):
    return StructuredLabel(kind=LabelKind.D3_HUB, fields=(f,))


class TestEncode:
    def test_single_one_bit_field(self):
        assert encode(hub("1")) == "0010" + "1101"

    def test_empty_field(self):
        assert encode(hub("")) == "0010" + "01"

    def test_no_fields_is_just_tag(self):
        assert encode(StructuredLabel(kind=LabelKind.D3_ROOT, fields=())) == "0001"

    def test_length_formula(self):
        lab = StructuredLabel(kind=LabelKind.D3_LEAF, fields=("1", "101", ""))
        assert len(encode(lab)) == 4 + (2 * 1 + 2) + (2 * 3 + 2) + (2 * 0 + 2)

    @settings(max_examples=300, deadline=None)
    @given(labels())
    def test_round_trip(self, lab):
        assert decode(encode(lab)) == lab

    @settings(max_examples=120, deadline=None)
    @given(labels(), labels())
    def test_injective(self, a, b):
        if a != b:
            assert encode(a) != encode(b)

    @settings(max_examples=120, deadline=None)
    @given(labels())
    def test_exact_length(self, lab):
        assert len(encode(lab)) == 4 + sum(2 * len(f) + 2 for f in lab.fields)


class TestDecodeErrors:
    def test_bad_tag(self):
        with pytest.raises(MalformedLabel):
            decode("1111")  # only ten kinds exist

    def test_dangling_pair(self):
        with pytest.raises(MalformedLabel):
            decode(encode(hub("1")) + "1")

    def test_missing_terminator(self):
        with pytest.raises(MalformedLabel):
            decode("0010" + "10")

    def test_truncated(self):
        with pytest.raises(MalformedLabel):
            decode("00")

    def test_field_count_enforced(self):
        with pytest.raises(MalformedLabel):
            decode("0001" + "01")  # D3_ROOT takes no fields

    def test_nonbinary_rejected(self):
        with pytest.raises(MalformedLabel):
            decode("00a1")


class TestSchemeLength:
    def test_single(self):
        assert scheme_length(["01"]) == 2

    def test_max(self):
        assert scheme_length(["01", "1101"]) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            scheme_length([])


class TestLabelFile:
    def test_round_trip(self):
        labs = {
            0: StructuredLabel(kind=LabelKind.D3_ROOT, fields=()),
            1: hub("101"),
            2: StructuredLabel(kind=LabelKind.D3_LEAF, fields=("1", "1", "10")),
        }
        assert labels_from_text(labels_to_text(labs)) == labs

    def test_blank_lines_are_skipped(self):
        labs = run_tree(path_tree(5)).structured
        padded = "\n \n".join(labels_to_text(labs).splitlines()) + "\n\n\t \n"
        assert labels_from_text(padded) == labs

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_second_line_for_a_node_rejected(self, order):
        lines = [f"0 HubD3 {encode(hub('1'))}", f"0 HubD3 {encode(hub('10'))}"][::order]
        with pytest.raises(MalformedLabel, match="node 0: more than one label line"):
            labels_from_text("\n".join(lines) + "\n")

    def test_kind_mismatch_rejected(self):
        text = f"0 RootD3 {encode(hub('1'))}\n"
        with pytest.raises(MalformedLabel):
            labels_from_text(text)

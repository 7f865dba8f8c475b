"""Identity suites at development scale (the acceptance run uses more cases)."""

import random

import props


def test_c2_leibniz():
    props.check_c2(random.Random(101), 150)


def test_c3_shift():
    props.check_c3(random.Random(102), 150)


def test_locality_vanishing():
    props.check_locality(random.Random(103), 150)


def test_associative_identity():
    props.check_assoc(random.Random(104), 120)


def test_associative_identity_inverted():
    props.check_assoc_inverted(random.Random(105), 120)


def test_product_leading_bounds():
    props.check_product_bounds(random.Random(106), 150)


def test_monotone_left_factor():
    props.check_monotone_corollary(random.Random(107), 120)


def test_polynomial_product_bound():
    props.check_poly_product_bound(random.Random(108), 120)


def test_pattern_leading_law():
    props.check_pattern_leading_law(random.Random(109), 120)


def test_s_word_values():
    props.check_s_word_values(random.Random(113), 120)


def test_trace_soundness_and_idempotence():
    props.check_traces(random.Random(110), 120)


def test_linearity():
    props.check_linearity(random.Random(111), 120)


def test_flat_kernels_match_recursive_reference():
    props.check_kernels(random.Random(112), 400)

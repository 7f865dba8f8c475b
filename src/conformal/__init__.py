"""Exact Groebner-Shirshov basis computations in free associative conformal
algebras with a uniform locality bound."""

from .words import (AlgebraSignature, ConformalError, GeneratorOrder,
                    GeneratorSymbol, NormalWord, SignatureError, compare_words,
                    gen, make_word)
from .algebra import (ConformalPolynomial, Deriv, Expr, Gen, LinComb, Prod,
                      apply_D, locality_bound, mult, normalize, poly_mult,
                      word_expr)
from .rewriting import (Pattern, ReductionTrace, Relation, RelationError,
                        RelationSet, eval_pattern, irr_enumerate, kd_basis,
                        normal_words, reduce_poly)
from .gsb import (Composition, CompletionLimits, CompletionResult, GsbReport,
                  check_gsb_rset, complete, enumerate_compositions,
                  interreduce, is_trivial, minimalize, mult_compositions,
                  pair_compositions, reduce_basis)
from .envelope import (BuiltinExample, EmbeddingReport, EquivalenceReport,
                       IndexWindow, LieTable, builtin_example, conjugate,
                       embedding_check, enveloping_presentation,
                       equivalence_check, heisenberg_virasoro_table,
                       instantiate_schemas, kd_element, schema_shapes,
                       virasoro_table)
from .dsl import (ParseError, PresentationFile, RelationSchema, parse_poly,
                  parse_presentation, parse_schema, parse_word, poly_str)

__version__ = "0.1.0"

"""Bimodal logic of knowledge and effort over treelike subset spaces.

Points are possible worlds, opens are knowledge states; K quantifies
over the points of the current open, [] over the opens shrinking it
around the current point.  The package provides the formula language,
model checking over finite subset spaces, structural checks and the
unfolding of birelational frames, the stable-partition/filtration
small-model pipeline, Hilbert-style proof checking for the twelve-scheme
system, and satisfiability search that is exact on treelike spaces.
"""

from .decide import (SatOutcome, SearchError, enumerate_spaces, formula_pool,
                     satisfiable, valid)
from .formula import (BOT, SCHEMES, SYSTEMS, TOP, Formula, ParseError,
                      SchemaError, SchemaTemplate, ast_dump, atom, atom_names,
                      box, conj, diamond, disj, implies, instantiate, know,
                      neg, parse, poss, render, scheme, size, subformulas)
from .kripke import (BiFrame, FrameError, FrameReport, UnfoldResult,
                     bi_satisfies, check_frame, frame_from_dict,
                     induced_frame, load_frame, unfold)
from .model import (MaskContext, Model, ModelError, SubsetSpace,
                    build_question_tree, build_stream_space, dump_model,
                    load_model, model_from_dict, model_to_dict)
from .partition import (Bound, ExtractResult, FiltrationResult,
                        PartitionError, PartitionTable,
                        build_stable_partitions, complexity_bound,
                        extract_finite_model, filtrate, ordered_family,
                        point_quotient, size_report)
from .proofs import (CheckOutcome, Proof, ProofError, ProofLine,
                     SoundnessReport, Violation, check_proof, is_tautology,
                     load_proof, proof_from_dict, proof_to_dict,
                     soundness_suite)

__version__ = "0.1.0"

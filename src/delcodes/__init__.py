"""Deletion-correcting binary codes: word primitives, dominant-pair
characterization and verification, code predicates, and exact search.

The public names resolve on first use (PEP 562), so importing the package
loads none of its modules: a CLI job loads only what its subcommand runs.
"""

# each public name, by the module that defines it
_MODULES = {
    "codes": (
        "Code",
        "are_equivalent",
        "code_deletion_distance",
        "dominant_codewords",
        "find_ball_collision",
        "is_basic",
        "is_perfect",
        "is_t_deletion_correcting",
        "replace_dominant",
        "vt_code",
    ),
    "dominance": (
        "CharacterizationReport",
        "DominancePair",
        "FilteredInstance",
        "GenerationResult",
        "PatternPair",
        "closed_form_generation",
        "dominators_of",
        "enumerate_dominant_pairs",
        "equivalence_closure",
        "generate_closed_form",
        "is_dominant",
        "subordinates_of",
        "verify_characterization",
    ),
    "search": (
        "ConflictGraph",
        "SearchBudgetExceeded",
        "SearchConfig",
        "SearchResult",
        "build_candidates",
        "build_conflict_graph",
        "enumerate_optimal_codes",
        "max_code_size",
    ),
    "words": (
        "BRUTE_FORCE_CAP",
        "MAX_LEN",
        "Word",
        "WordSet",
        "complement",
        "delete_at",
        "deletion_ball",
        "deletion_distance",
        "hamming_distance",
        "is_subsequence",
        "lcs_length",
        "levenshtein_indel",
        "reverse",
        "reverse_complement",
        "run_length_encode",
        "weight",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, as an import statement, so that -X importtime lists it
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value
    return value

"""Rule registry for the gradlint engine.

Rules are instantiated once and shared across files; they hold no per-file
state (everything flows through :class:`~repro.analysis.rules.base.LintContext`).
"""

from .autograd import (GRAPH_LAYER_SUFFIXES, SANCTIONED_MUTATION_SUFFIXES,
                       GraphBypassRule, InPlaceMutationRule,
                       MissingUnbroadcastRule)
from .base import LintContext, Rule, attribute_chain, contains_data_attribute
from .concurrency import (LOCK_FACTORY_NAMES, LOCK_PROXY_SUFFIXES,
                          MUTATING_METHODS, BareAcquireRule,
                          BlockingCallUnderLockRule, LockOrderInversionRule,
                          ThreadOwnershipRule, UnguardedSharedMutationRule)
from .hygiene import (MEMMAP_MATERIALIZERS, SANCTIONED_NP_RANDOM_CALLS,
                      AllDriftRule, LegacyNumpyRandomRule,
                      MemmapInflationRule, SwallowedExceptionRule)


def all_rules():
    """Fresh instances of every registered rule, ordered by family then id."""
    return [
        MissingUnbroadcastRule(),
        GraphBypassRule(),
        InPlaceMutationRule(),
        LegacyNumpyRandomRule(),
        SwallowedExceptionRule(),
        AllDriftRule(),
        MemmapInflationRule(),
        UnguardedSharedMutationRule(),
        BareAcquireRule(),
        BlockingCallUnderLockRule(),
        LockOrderInversionRule(),
        ThreadOwnershipRule(),
    ]


__all__ = [
    "Rule", "LintContext", "attribute_chain", "contains_data_attribute",
    "MissingUnbroadcastRule", "GraphBypassRule", "InPlaceMutationRule",
    "LegacyNumpyRandomRule", "SwallowedExceptionRule", "AllDriftRule",
    "MemmapInflationRule",
    "UnguardedSharedMutationRule", "BareAcquireRule",
    "BlockingCallUnderLockRule", "LockOrderInversionRule",
    "ThreadOwnershipRule",
    "GRAPH_LAYER_SUFFIXES", "SANCTIONED_MUTATION_SUFFIXES",
    "SANCTIONED_NP_RANDOM_CALLS",
    "MEMMAP_MATERIALIZERS",
    "LOCK_FACTORY_NAMES", "LOCK_PROXY_SUFFIXES", "MUTATING_METHODS",
    "all_rules",
]

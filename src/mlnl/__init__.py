"""Desk-scale lab for noise-robust multi-label classification.

Pipeline: generate synthetic correlated multi-label data, inject symmetric
label noise into the silver split, train a silver classifier with the
asymmetric loss, estimate the corruption matrix via single-label regulators
(with a GLC baseline), and train the final classifier with the corrected loss.
"""

__version__ = "0.1.0"

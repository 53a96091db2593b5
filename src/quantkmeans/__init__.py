"""Distributed finite-time k-means clustering over digraphs with integer-only
messaging, exact rational centroids, event-triggered transmissions, and
distributed stopping, together with a deterministic lock-step simulator."""

from .exactmath import Fraction, FractionVector, sq_dist_exact
from .graph import (Digraph, EdgeOrdering, assign_edge_orders, diameter,
                    generate_random_digraph, is_strongly_connected,
                    parse_edge_list, serialize_edge_list)
from .kmeans import (assign_cluster, finalize_round, parse_centroids,
                     parse_observations)
from .oracle import brute_average, check_equivalence, lloyd_reference
from .sim import (ConsensusTrace, ExperimentConfig, KMeansTrace,
                  ProtocolError, SweepResult, distance_objective,
                  run_consensus, run_experiment, run_kmeans, sweep)

__all__ = [
    "ConsensusTrace", "Digraph", "EdgeOrdering", "ExperimentConfig",
    "Fraction", "FractionVector", "KMeansTrace", "ProtocolError",
    "SweepResult", "assign_cluster", "assign_edge_orders", "brute_average",
    "check_equivalence", "diameter", "distance_objective", "finalize_round",
    "generate_random_digraph", "is_strongly_connected", "lloyd_reference",
    "parse_centroids", "parse_observations", "run_consensus",
    "run_experiment", "run_kmeans", "serialize_edge_list", "sq_dist_exact",
    "sweep",
]

"""Triangle-aware graph embeddings: count motif participation, reweight
adjacency and walk transitions with it, train DeepWalk/node2vec/LINE/spectral
style embeddings, and evaluate them on link prediction and clustering."""

from .config import TrainConfig
from .embedding import (
    EmbeddingMatrix,
    load_embedding_binary,
    load_embedding_text,
    save_embedding_binary,
    save_embedding_text,
)
from .evaluation import (
    ConfusionCounts,
    LinkPredSplit,
    MetricsReport,
    SilhouetteReport,
    compute_metrics,
    cosine_scores,
    kmeans_cluster,
    make_split,
    rank_auc,
    silhouette_score,
)
from .graph import (
    Graph,
    GraphStats,
    ParseError,
    graph_stats,
    load_edge_list,
    null_model_rewire,
    parse_edge_list,
    write_edge_list,
)
from .line import train_line
from .motifs import (
    MotifStats,
    TransitionModel,
    WeightedAdjacency,
    build_motif_adjacency,
    build_transition_model,
    count_triangles,
    null_model_totals,
    unit_adjacency,
    uniform_transitions,
)
from .pipeline import embed_graph, run_report, write_report_csv, write_report_json
from .sgns import train_sgns
from .spectral import train_spectral
from .synth import planted_partition
from .walks import WalkCorpus, generate_walks, node2vec_walks

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "EmbeddingMatrix",
    "load_embedding_binary",
    "load_embedding_text",
    "save_embedding_binary",
    "save_embedding_text",
    "ConfusionCounts",
    "LinkPredSplit",
    "MetricsReport",
    "SilhouetteReport",
    "compute_metrics",
    "cosine_scores",
    "kmeans_cluster",
    "make_split",
    "rank_auc",
    "silhouette_score",
    "Graph",
    "GraphStats",
    "ParseError",
    "graph_stats",
    "load_edge_list",
    "null_model_rewire",
    "parse_edge_list",
    "write_edge_list",
    "train_line",
    "MotifStats",
    "TransitionModel",
    "WeightedAdjacency",
    "build_motif_adjacency",
    "build_transition_model",
    "count_triangles",
    "null_model_totals",
    "unit_adjacency",
    "uniform_transitions",
    "embed_graph",
    "run_report",
    "write_report_csv",
    "write_report_json",
    "train_sgns",
    "train_spectral",
    "planted_partition",
    "WalkCorpus",
    "generate_walks",
    "node2vec_walks",
    "__version__",
]

"""Machine-learning substrate.

The paper's learning framework relies on standard ML machinery -- K-means
clustering for Level-1 input grouping, decision trees for the exhaustive
feature-subset classifiers, a discretized Bayes model for the incremental
feature-examination classifier, and the train/test split for classifier
evaluation.  scikit-learn is not available in this offline environment, so
this subpackage implements the needed pieces from scratch on top of numpy.

All estimators follow a small common convention: ``fit(X, y)`` /
``predict(X)`` with numpy arrays, explicit ``random_state`` seeds for
determinism, and no hidden global state.
"""

from repro.ml.crossval import train_test_split
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.kmeans import KMeans, KMeansResult
from repro.ml.naive_bayes import DiscretizedNaiveBayes
from repro.ml.normalize import ZScoreNormalizer
from repro.ml.pca import PCA

__all__ = [
    "DecisionTreeClassifier",
    "DiscretizedNaiveBayes",
    "KMeans",
    "KMeansResult",
    "PCA",
    "train_test_split",
    "ZScoreNormalizer",
]

"""Dynamic-environment (churn) model.

For the dynamic experiments (Figures 9--12) the paper lets *"5% old nodes
leave and 5% new nodes join per scheduling period"*.  Joining nodes do not
back-fill the history of either source; they simply start following their
neighbours' current playback point.  This subpackage provides the churn
policy (:class:`~repro.churn.model.ChurnModel`), which decides *who leaves*
and *how many join* each period; the session executes the plan (removing
peers, repairing neighbour sets, creating joiners).
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "ChurnConfig": "repro.churn.model",
    "ChurnModel": "repro.churn.model",
    "ChurnPlan": "repro.churn.model",
})

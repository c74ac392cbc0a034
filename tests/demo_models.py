"""The small hand-built structures shipped as ``demos/models/*.json``.

``m_red``: two states; agent 1 knows the state, agent 2 does not; agent 1
reads p as true only at w1, agent 2 everywhere.  ``m_sig`` adds a signal
proposition s, uniform priors and signals.  ``m_ai``: neither agent can
tell a from b, and agent 1's signals s and t are read differently by the
two agents.  ``m_ck`` is ``m_red`` with agent 1's reading of p shared by
everyone.
"""

import pathlib

from ambilogic.structure import load_structure
from ambilogic.transforms import fix_interpretation

MODELS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "models"


def m_red():
    return load_structure(MODELS / "m_red.json")


def m_sig():
    return load_structure(MODELS / "m_sig.json")


def m_ai():
    return load_structure(MODELS / "m_ai.json")


def m_ck():
    return fix_interpretation(m_red(), 1)

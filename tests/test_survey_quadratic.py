"""`scripts/survey_quadratic.py` reads `build_report` directly, so its
output is pinned here: tests/golden/survey_quadratic_60.txt is the stdout
of `survey(60)`."""

import importlib.util
import os

HERE = os.path.dirname(__file__)
SURVEY = os.path.join(HERE, "..", "scripts", "survey_quadratic.py")


def test_survey_matches_golden(capsys):
    spec = importlib.util.spec_from_file_location("survey_quadratic", SURVEY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.survey(60)
    with open(os.path.join(HERE, "golden", "survey_quadratic_60.txt"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()

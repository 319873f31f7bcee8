"""Wire-schema tests: submission validation and the deduplicating fingerprint."""

from __future__ import annotations

import pytest

from repro.service.schemas import (
    JobSpec,
    SubmissionError,
    job_fingerprint,
    run_digests,
    validate_submission,
)


class TestValidation:
    def test_valid_payload_round_trips(self, make_payload):
        spec = validate_submission(make_payload(n_runs=3))
        assert spec.study_name == "svc-test"
        assert len(spec.configurations) == 3
        assert spec.backend == "process"  # a submission naming no backend runs in study workers
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_non_object_rejected(self):
        with pytest.raises(SubmissionError, match="JSON object"):
            validate_submission([1, 2, 3])

    def test_unknown_top_level_key_rejected(self, make_payload):
        with pytest.raises(SubmissionError, match="unknown submission key"):
            validate_submission(dict(make_payload(), nope=1))

    def test_missing_study_name_rejected(self, make_payload):
        payload = make_payload()
        del payload["study_name"]
        with pytest.raises(SubmissionError, match="study_name"):
            validate_submission(payload)

    def test_empty_configurations_rejected(self, make_payload):
        with pytest.raises(SubmissionError, match="non-empty list"):
            validate_submission(dict(make_payload(), configurations=[]))

    def test_default_configurations_is_one_bare_run(self, make_payload):
        payload = make_payload()
        del payload["configurations"]
        assert validate_submission(payload).configurations == [{}]

    def test_bad_config_key_rejected_at_the_boundary(self, make_payload):
        payload = make_payload()
        payload["config"]["not_a_field"] = 1
        with pytest.raises(SubmissionError, match="invalid config"):
            validate_submission(payload)

    def test_bad_override_key_named_with_index(self, make_payload):
        payload = make_payload()
        payload["configurations"] = [{"hidden_size": 8}, {"bogus_key": 1}]
        with pytest.raises(SubmissionError, match=r"configurations\[1\]"):
            validate_submission(payload)

    @pytest.mark.parametrize(
        "workload_fields,problem",
        [
            ({"workload": "advection1d", "workload_options": {"n_points": 256, "dt": 0.05}},
             "CFL violation"),
            ({"workload": "burgers", "workload_options": {"no_such_knob": 1}}, "no_such_knob"),
        ],
    )
    def test_unbuildable_workload_rejected_at_the_boundary(
        self, make_payload, workload_fields, problem
    ):
        payload = make_payload()
        payload["config"].update(workload_fields)
        with pytest.raises(SubmissionError, match=rf"invalid config: .*{problem}"):
            validate_submission(payload)
        payload = make_payload()
        payload["configurations"] = [{}, workload_fields]
        with pytest.raises(SubmissionError, match=rf"configurations\[1\]: .*{problem}"):
            validate_submission(payload)

    def test_unknown_backend_rejected(self, make_payload):
        with pytest.raises(SubmissionError, match="backend"):
            validate_submission(dict(make_payload(), backend="gpu"))

    def test_negative_checkpoint_every_rejected(self, make_payload):
        with pytest.raises(SubmissionError, match="checkpoint_every"):
            validate_submission(dict(make_payload(), checkpoint_every=-1))


class TestFingerprint:
    def test_identical_submissions_fingerprint_identically(self, make_payload):
        assert job_fingerprint(validate_submission(make_payload())) == job_fingerprint(
            validate_submission(make_payload())
        )

    def test_fingerprint_ignores_payload_key_order(self, make_payload):
        payload = make_payload()
        reordered = dict(reversed(list(payload.items())))
        reordered["config"] = dict(reversed(list(payload["config"].items())))
        assert job_fingerprint(validate_submission(payload)) == job_fingerprint(
            validate_submission(reordered)
        )

    def test_fingerprint_changes_with_seed(self, make_payload):
        assert job_fingerprint(validate_submission(make_payload(seed=0))) != job_fingerprint(
            validate_submission(make_payload(seed=1))
        )

    def test_fingerprint_changes_with_study_name(self, make_payload):
        assert job_fingerprint(
            validate_submission(make_payload(study_name="a"))
        ) != job_fingerprint(validate_submission(make_payload(study_name="b")))

    def test_fingerprint_changes_with_run_set(self, make_payload):
        assert job_fingerprint(validate_submission(make_payload(n_runs=2))) != job_fingerprint(
            validate_submission(make_payload(n_runs=3))
        )

    def test_fingerprint_ignores_executor_and_checkpoint_knobs(self, make_payload):
        # backend/max_workers/checkpoint_every change *how* the study runs,
        # never its results — they must not defeat deduplication
        base = validate_submission(make_payload())
        tweaked = validate_submission(
            dict(make_payload(), backend="process", max_workers=2, checkpoint_every=5)
        )
        assert job_fingerprint(base) == job_fingerprint(tweaked)

    def test_run_digests_follow_study_engine_naming(self, make_payload):
        spec = validate_submission(make_payload(n_runs=2))
        assert [name for name, _ in run_digests(spec)] == ["svc-test:0", "svc-test:1"]

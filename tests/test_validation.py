from skg.validation import Issue, ValidationReport


def test_issue_renders_tab_separated():
    issue = Issue("BadThing", "SG:FailureMode:x", "because")
    assert str(issue) == "BadThing\tSG:FailureMode:x\tbecause"


def test_empty_report_is_ok():
    report = ValidationReport()
    assert report.ok
    assert report.codes() == []
    assert not report.has("Anything")
    assert report.to_text() == "OK\n"


def test_report_preserves_traversal_order():
    report = ValidationReport([Issue("B", "s2", "later"), Issue("A", "s1", "earlier")])
    assert not report.ok
    assert report.codes() == ["B", "A"]
    assert report.has("A") and report.has("B")
    assert report.to_text() == "B\ts2\tlater\nA\ts1\tearlier\n"


def test_report_freezes_issue_list():
    issues = [Issue("A", "s", "d")]
    report = ValidationReport(issues)
    issues.append(Issue("B", "s", "d"))
    assert report.codes() == ["A"]

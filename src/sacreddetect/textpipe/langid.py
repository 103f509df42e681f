"""Character-trigram language identification over a small built-in profile set.

Each language profile is a bag of letter trigrams taken from a bundled seed
paragraph, with word-boundary padding (`` word `` before trigram extraction).
Because trigrams never cross token boundaries, the extracted bag -- and
therefore the label -- is invariant under any reordering of the words or
sentences of the input.

Scoring is add-one-smoothed log-likelihood per profile; the reported
confidence is the softmax posterior of the best profile, damped by an
evidence factor ``min(1, len(text)/80)`` so that texts under 40 characters
can never exceed confidence 0.5: two words prove very little.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# Seed paragraphs: plain, domain-neutral prose written for this profile set.
_SEEDS = {
    "en": (
        "The committee agreed that the report should be published before the "
        "end of the year. Many people believe that protecting rivers and "
        "forests is a shared responsibility, and that governments should "
        "listen carefully to local communities. When the weather changes "
        "quickly, farmers have to adapt their plans for planting and "
        "harvesting. She walked through the old town, looking at the small "
        "shops and wondering how long they had been there. There is growing "
        "evidence that simple measures, such as better insulation and cleaner "
        "transport, can reduce emissions while improving everyday life. The "
        "children asked whether the story was true, and the teacher smiled "
        "before answering. Our neighbours have lived beside the harbour for "
        "thirty years and they still watch the boats every morning. If you "
        "want to learn more about the project, please visit the library and "
        "ask for the yearly review. Scientists measured the temperature of "
        "the lake during every season and compared the results with older "
        "records. Nothing in the garden had changed, except that the apple "
        "tree was taller and the fence needed painting."
    ),
    "nl": (
        "De commissie was het erover eens dat het rapport voor het einde van "
        "het jaar gepubliceerd moest worden. Veel mensen geloven dat de "
        "bescherming van rivieren en bossen een gedeelde verantwoordelijkheid "
        "is, en dat de overheid goed naar plaatselijke gemeenschappen moet "
        "luisteren. Wanneer het weer snel verandert, moeten boeren hun "
        "plannen voor zaaien en oogsten aanpassen. Zij liep door de oude "
        "binnenstad, keek naar de kleine winkels en vroeg zich af hoe lang ze "
        "daar al stonden. Er zijn steeds meer aanwijzingen dat eenvoudige "
        "maatregelen, zoals betere isolatie en schoner vervoer, de uitstoot "
        "kunnen verminderen en het dagelijks leven verbeteren. De kinderen "
        "vroegen of het verhaal echt gebeurd was, en de juf glimlachte "
        "voordat ze antwoord gaf. Onze buren wonen al dertig jaar naast de "
        "haven en kijken nog elke ochtend naar de boten. Als je meer over het "
        "project wilt weten, ga dan naar de bibliotheek en vraag naar het "
        "jaarverslag. Wetenschappers maten de temperatuur van het meer in elk "
        "seizoen en vergeleken de uitkomsten met oudere metingen."
    ),
    "de": (
        "Der Ausschuss war sich einig, dass der Bericht vor dem Ende des "
        "Jahres veröffentlicht werden sollte. Viele Menschen glauben, dass "
        "der Schutz von Flüssen und Wäldern eine gemeinsame Verantwortung ist "
        "und dass die Regierung den örtlichen Gemeinden genau zuhören sollte. "
        "Wenn sich das Wetter schnell ändert, müssen die Bauern ihre Pläne "
        "für Aussaat und Ernte anpassen. Sie ging durch die Altstadt, "
        "betrachtete die kleinen Läden und fragte sich, wie lange es sie "
        "schon gab. Es gibt immer mehr Hinweise darauf, dass einfache "
        "Maßnahmen wie bessere Dämmung und sauberer Verkehr die Emissionen "
        "senken und zugleich das tägliche Leben verbessern können. Die Kinder "
        "fragten, ob die Geschichte wahr sei, und die Lehrerin lächelte, "
        "bevor sie antwortete. Unsere Nachbarn wohnen seit dreißig Jahren am "
        "Hafen und beobachten noch jeden Morgen die Schiffe."
    ),
    "fr": (
        "Le comité a convenu que le rapport devait être publié avant la fin "
        "de l'année. Beaucoup de gens pensent que la protection des rivières "
        "et des forêts est une responsabilité partagée, et que le "
        "gouvernement doit écouter attentivement les communautés locales. "
        "Quand le temps change rapidement, les agriculteurs doivent adapter "
        "leurs plans de semis et de récolte. Elle marchait dans la vieille "
        "ville, regardant les petites boutiques et se demandant depuis "
        "combien de temps elles étaient là. Il existe de plus en plus de "
        "preuves que des mesures simples, comme une meilleure isolation et "
        "des transports plus propres, peuvent réduire les émissions tout en "
        "améliorant la vie quotidienne. Les enfants ont demandé si l'histoire "
        "était vraie, et la maîtresse a souri avant de répondre. Nos voisins "
        "habitent près du port depuis trente ans et regardent encore les "
        "bateaux chaque matin."
    ),
    "es": (
        "El comité acordó que el informe debía publicarse antes de fin de "
        "año. Mucha gente cree que la protección de los ríos y los bosques "
        "es una responsabilidad compartida, y que el gobierno debe escuchar "
        "con atención a las comunidades locales. Cuando el tiempo cambia "
        "rápidamente, los agricultores tienen que adaptar sus planes de "
        "siembra y cosecha. Ella caminaba por el casco antiguo, mirando las "
        "pequeñas tiendas y preguntándose cuánto tiempo llevaban allí. Cada "
        "vez hay más pruebas de que medidas sencillas, como un mejor "
        "aislamiento y un transporte más limpio, pueden reducir las "
        "emisiones y mejorar la vida cotidiana. Los niños preguntaron si la "
        "historia era verdadera, y la maestra sonrió antes de responder. "
        "Nuestros vecinos viven junto al puerto desde hace treinta años y "
        "todavía miran los barcos cada mañana."
    ),
}

LANGUAGES = tuple(_SEEDS)


def _trigram_bag(text: str) -> Counter:
    return Counter(
        padded[i : i + 3]
        for padded in (f" {word} " for word in _WORD_RE.findall(text.lower()))
        for i in range(len(padded) - 2)
    )


def _log_table(seed: str) -> tuple[dict[str, float], float]:
    """Add-one-smoothed log-probability of each profile trigram, and of an
    unseen one."""
    profile = _trigram_bag(seed)
    denom = sum(profile.values()) + len(profile) + 1
    return {g: math.log((n + 1) / denom) for g, n in profile.items()}, math.log(1 / denom)


_TABLES = {lang: _log_table(seed) for lang, seed in _SEEDS.items()}


def _log_likelihood(bag: Counter, lang: str) -> float:
    table, unseen = _TABLES[lang]
    return sum(n * table.get(g, unseen) for g, n in bag.items())


def detect_language(text: str) -> tuple[str, float]:
    """Best-matching language code and a confidence fraction in [0, 1]."""
    if not text:
        raise ValueError("detect_language requires non-empty text")
    bag = _trigram_bag(text)
    if not bag:
        return "en", 0.0
    scores = {lang: _log_likelihood(bag, lang) for lang in LANGUAGES}
    best = max(scores, key=lambda lang: (scores[lang], lang))
    top = scores[best]
    posterior = 1.0 / sum(math.exp(s - top) for s in scores.values())
    evidence = min(1.0, len(text.strip()) / 80.0)
    return best, posterior * evidence
